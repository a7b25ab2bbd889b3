"""Rank-3 character arithmetic: wedge and symmetric powers by Newton
recursion, Schur decomposition, and the Bott nonvanishing case list.

Characters of representations of the rank-3 tautological bundle are
symmetric polynomials in three variables with nonnegative integer
coefficients, stored as dense integer cubes indexed by exponents.  All
multiplications stay in int64; genuine character coefficients here are
weight multiplicities bounded by the representation dimensions (far below
2^63), and the rank bookkeeping checks run on every decomposition, so an
overflow could not pass silently.

Decomposition into Schur pieces uses the alternant: multiplying a
character by prod_(i<j)(x_i - x_j) turns the Schur basis into signed
orbit sums of strictly decreasing exponent vectors, so the multiplicity
of the piece with highest weight b can be read off at b + (2,1,0), and
rebuilding the product from the list certifies the decomposition.
"""

from dataclasses import dataclass

import numpy as np


class NotACharacter(ValueError):
    """Input fails to be a nonnegative integer combination of Schur
    characters."""


class Character3:
    """Dense symmetric polynomial in three variables, int64 cube."""

    __slots__ = ("arr",)

    def __init__(self, arr):
        self.arr = arr

    @classmethod
    def zero(cls, degree=0):
        return cls(np.zeros((degree + 1,) * 3, dtype=np.int64))

    @classmethod
    def one(cls):
        arr = np.zeros((1, 1, 1), dtype=np.int64)
        arr[0, 0, 0] = 1
        return cls(arr)

    @classmethod
    def from_terms(cls, terms):
        degree = max(max(m) for m in terms)
        arr = np.zeros((degree + 1,) * 3, dtype=np.int64)
        for m, c in terms.items():
            arr[m] = c
        return cls(arr)

    def is_zero(self):
        return not self.arr.any()

    def rank(self):
        """Value at (1,1,1): the dimension of the representation."""
        return int(self.arr.sum())

    def nnz(self):
        return int(np.count_nonzero(self.arr))

    def _padded(self, size):
        if self.arr.shape[0] == size:
            return self.arr
        out = np.zeros((size,) * 3, dtype=np.int64)
        s = self.arr.shape[0]
        out[:s, :s, :s] = self.arr
        return out

    def __eq__(self, other):
        size = max(self.arr.shape[0], other.arr.shape[0])
        return bool(np.array_equal(self._padded(size), other._padded(size)))

    def __add__(self, other):
        size = max(self.arr.shape[0], other.arr.shape[0])
        return Character3(self._padded(size) + other._padded(size))

    def __sub__(self, other):
        size = max(self.arr.shape[0], other.arr.shape[0])
        return Character3(self._padded(size) - other._padded(size))

    def scale(self, c):
        return Character3(self.arr * np.int64(c))

    def __mul__(self, other):
        a, b = self, other
        if a.nnz() > b.nnz():
            a, b = b, a
        if a.is_zero() or b.is_zero():
            return Character3.zero()
        sa, sb = a.arr.shape[0], b.arr.shape[0]
        out = np.zeros((sa + sb - 1,) * 3, dtype=np.int64)
        idx = np.argwhere(a.arr)
        vals = a.arr[tuple(idx.T)]
        for (e1, e2, e3), c in zip(idx, vals):
            out[e1:e1 + sb, e2:e2 + sb, e3:e3 + sb] += c * b.arr
        return Character3(out)

    def adams(self, t):
        """Substitute t-th powers of the variables."""
        if t == 1:
            return self
        idx = np.argwhere(self.arr)
        vals = self.arr[tuple(idx.T)]
        size = (self.arr.shape[0] - 1) * t + 1
        out = np.zeros((size,) * 3, dtype=np.int64)
        out[tuple((idx * t).T)] = vals
        return Character3(out)

    def exact_div_int(self, k):
        q, r = np.divmod(self.arr, np.int64(k))
        if r.any():
            raise NotACharacter(f"coefficients not divisible by {k}")
        return Character3(q)

    def __repr__(self):
        return f"Character3(rank={self.rank()}, nnz={self.nnz()})"


def symmetric_power_char(d):
    """Character of S^d of the rank-3 bundle: the complete homogeneous
    symmetric polynomial h_d, of rank (d+1)(d+2)/2."""
    if d < 0:
        raise ValueError("negative symmetric power")
    arr = np.zeros((d + 1,) * 3, dtype=np.int64)
    for e1 in range(d + 1):
        for e2 in range(d + 1 - e1):
            arr[e1, e2, d - e1 - e2] = 1
    return Character3(arr)


E_CHAR = symmetric_power_char(1)


def _newton_powers(c, top):
    return [None] + [c.adams(t) for t in range(1, top + 1)]


def wedge_list(c, top):
    """Characters of the exterior powers 0..top via
    k*e_k = sum_t (-1)^(t-1) e_(k-t) p_t."""
    p = _newton_powers(c, top)
    out = [Character3.one()]
    for k in range(1, top + 1):
        acc = Character3.zero()
        for t in range(1, k + 1):
            term = out[k - t] * p[t]
            acc = acc + term if t % 2 == 1 else acc - term
        out.append(acc.exact_div_int(k))
    return out


def sym_list(c, top):
    """Characters of the symmetric powers 0..top via
    m*h_m = sum_t h_(m-t) p_t."""
    p = _newton_powers(c, top)
    out = [Character3.one()]
    for m in range(1, top + 1):
        acc = Character3.zero()
        for t in range(1, m + 1):
            acc = acc + out[m - t] * p[t]
        out.append(acc.exact_div_int(m))
    return out


def wedge_char(c, k):
    return wedge_list(c, k)[k]


def sym_char(c, m):
    return sym_list(c, m)[m]


_ANTISYMMETRIZER = Character3.from_terms({
    (2, 1, 0): 1, (2, 0, 1): -1, (1, 2, 0): -1,
    (0, 2, 1): 1, (1, 0, 2): 1, (0, 1, 2): -1,
})


def weyl_dim(b):
    """Dimension of the irreducible with highest weight (b1,b2,b3)."""
    b1, b2, b3 = b
    return (b1 - b2 + 1) * (b2 - b3 + 1) * (b1 - b3 + 2) // 2


def schur_decompose(c):
    """Multiset of Schur triples with multiplicities summing to c.

    Raises NotACharacter when a multiplicity comes out negative or the
    signed orbit reconstruction fails (non-symmetric or non-integral
    input)."""
    prod = c * _ANTISYMMETRIZER
    arr = prod.arr
    triples = []
    for (e1, e2, e3) in np.argwhere(arr):
        if e1 > e2 > e3:
            mult = int(arr[e1, e2, e3])
            b = (int(e1) - 2, int(e2) - 1, int(e3))
            if mult < 0:
                raise NotACharacter(f"negative multiplicity {mult} at {b}")
            triples.append((b, mult))
    # certify: rebuilding the alternant from the list must reproduce prod
    rebuilt = np.zeros_like(arr)
    for (b1, b2, b3), mult in triples:
        lam = (b1 + 2, b2 + 1, b3)
        for perm, sign in (((0, 1, 2), 1), ((0, 2, 1), -1), ((1, 0, 2), -1),
                           ((1, 2, 0), 1), ((2, 0, 1), 1), ((2, 1, 0), -1)):
            pos = (lam[perm[0]], lam[perm[1]], lam[perm[2]])
            rebuilt[pos] += sign * mult
    if not np.array_equal(rebuilt, arr):
        raise NotACharacter("decomposition does not rebuild the character")
    if sum(weyl_dim(b) * m for b, m in triples) != c.rank():
        raise NotACharacter("rank bookkeeping failed")
    triples.sort(key=lambda bm: bm[0], reverse=True)
    return triples


def schur_char(b):
    """Character of the Schur functor S_b of the rank-3 bundle."""
    b1, b2, b3 = b
    if not (b1 >= b2 >= b3 >= 0):
        raise ValueError("triple must be sorted and nonnegative")
    lam1, lam2 = b1 - b3, b2 - b3
    # Jacobi-Trudi for two rows, then shift by the determinant power
    hs = {d: symmetric_power_char(d) for d in
          {lam1, lam2, lam1 + 1, max(lam2 - 1, 0)}}
    out = hs[lam1] * hs[lam2]
    if lam2 >= 1:
        out = out - hs[lam1 + 1] * hs[lam2 - 1]
    if b3:
        out = out * Character3.from_terms({(b3, b3, b3): 1})
    return out


# ---------------------------------------------------------------------------
# the combinatorial core of the irreducibility argument


def check_star_star(b, k, r, n):
    """The Littlewood-Richardson bound on factors of the k-th wedge block:
    b2 + b3 >= k - r and b3 >= k - (n+1)/2 - 2r."""
    b1, b2, b3 = b
    return b2 + b3 >= k - r and b3 >= k - (n + 1) // 2 - 2 * r


def bott_nonvanishing_case(b, k, n, r):
    """Which entry of the nonvanishing case list (1..5) the pair (k, b)
    hits, or None.  Outside these cases all cohomology of the Schur
    bundle vanishes."""
    b1, b2, b3 = b
    base = n + r - 2
    if k == base and b1 >= n + r - 1:
        if (b2, b3) == (0, 0):
            return 1
        if (b2, b3) == (1, 0):
            return 2
        if (b2, b3) == (1, 1):
            return 3
    if k == 2 * base and b2 >= n + r and b3 in (0, 1, 2):
        return 4
    if k == 3 * base and b3 >= n + r + 1:
        return 5
    return None


@dataclass
class FactorVerdict:
    triple: tuple
    multiplicity: int
    satisfies_star_star: bool
    hits_bott_case: object     # None or 1..5

    def to_json(self):
        return {
            "triple": list(self.triple),
            "multiplicity": self.multiplicity,
            "satisfies_star_star": self.satisfies_star_star,
            "hits_bott_case": self.hits_bott_case,
        }


@dataclass
class VanishingVerdict:
    n: int
    degrees: tuple
    j: int
    k: int
    factors: list
    verdict: str               # "vanishes" | "inconclusive"
    min_b2_plus_b3: object     # None when there are no factors

    def to_json(self):
        return {
            "n": self.n,
            "degrees": list(self.degrees),
            "j": self.j,
            "k": self.k,
            "verdict": self.verdict,
            "min_b2_plus_b3": self.min_b2_plus_b3,
            "factors": [f.to_json() for f in self.factors],
        }


def rank_q(n, degrees):
    """Rank of the obstruction bundle, which must equal n+1+3r."""
    return sum((d + 1) * (d + 2) // 2 - d * (d - 1) // 2 for d in degrees)


def _validate_parameters(n, degrees, j=None, k=None):
    r = len(degrees)
    if n < 5 or n % 2 == 0:
        raise ValueError("the vanishing argument needs odd n >= 5")
    if sum(degrees) != (n + 1) // 2 + r:
        raise ValueError("degrees do not satisfy the boundary relation")
    rk = n + 1 + 3 * r
    if j is not None and not (1 <= j <= rk):
        raise ValueError(f"j must lie in 1..{rk}")
    if k is not None and not (0 <= k <= j):
        raise ValueError("k must lie in 0..j")
    return r, rk


class VanishingGrid:
    """Caches the wedge and symmetric power characters across a (j,k) grid."""

    def __init__(self, n, degrees):
        degrees = tuple(degrees)
        self.n = n
        self.degrees = degrees
        self.r, self.rank_q = _validate_parameters(n, degrees)
        wedge_base = None
        sym_base_inner = None
        for d in degrees:
            hd = symmetric_power_char(d)
            wedge_base = hd if wedge_base is None else wedge_base + hd
            hd2 = symmetric_power_char(d - 2)
            sym_base_inner = hd2 if sym_base_inner is None else sym_base_inner + hd2
        self.wedge_base = wedge_base
        self.sym_base = sym_base_inner * symmetric_power_char(2)
        top = self.rank_q
        self._wedges = wedge_list(wedge_base, min(top, wedge_base.rank()))
        self._syms = sym_list(self.sym_base, top)

    def wedge(self, k):
        if k >= len(self._wedges):
            return Character3.zero()
        return self._wedges[k]

    def sym(self, m):
        return self._syms[m]

    def verdict(self, j, k):
        _validate_parameters(self.n, self.degrees, j, k)
        char = self.wedge(k) * self.sym(j - k)
        factors = []
        verdict = "vanishes"
        minsum = None
        for b, mult in schur_decompose(char):
            star = check_star_star(b, k, self.r, self.n)
            case = bott_nonvanishing_case(b, k, self.n, self.r)
            if case is not None:
                verdict = "inconclusive"
            s = b[1] + b[2]
            minsum = s if minsum is None else min(minsum, s)
            factors.append(FactorVerdict(b, mult, star, case))
        return VanishingVerdict(self.n, self.degrees, j, k, factors,
                                verdict, minsum)

    def exclusion_inequalities(self):
        """The numeric inequalities that rule the Bott cases out for this
        (n, degrees): cases 1-3 by the first bound, case 4 by the second,
        case 5 by the rank cap."""
        n, r = self.n, self.r
        return {
            "cases_1_3": {"k_minus_r": n - 2, "excludes_up_to": 2,
                          "holds": n - 2 > 2},
            "case_4": {"second_bound": 3 * (n - 3) // 2, "excludes_up_to": 2,
                       "holds": 3 * (n - 3) // 2 > 2},
            "case_5": {"k_needed": 3 * (n + r - 2), "rank_cap": self.rank_q,
                       "holds": 3 * (n + r - 2) > self.rank_q},
        }


def vanishing_verdict(n, degrees, j, k):
    """Decompose the (j,k) bundle block and test every factor against the
    nonvanishing case list."""
    return VanishingGrid(n, degrees).verdict(j, k)


def vanishing_grid(n, degrees):
    """All pairs 1 <= j <= rank, 0 <= k <= j; returns (verdicts, all_vanish)."""
    grid = VanishingGrid(n, degrees)
    verdicts = {}
    for j in range(1, grid.rank_q + 1):
        for k in range(0, j + 1):
            verdicts[(j, k)] = grid.verdict(j, k)
    all_vanish = all(v.verdict == "vanishes" for v in verdicts.values())
    return verdicts, all_vanish
