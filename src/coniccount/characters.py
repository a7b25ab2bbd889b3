"""Rank-3 character arithmetic: wedge and symmetric powers by Newton
recursion, Schur decomposition, and the Bott nonvanishing case list.

Characters of representations of the rank-3 tautological bundle are
symmetric polynomials in three variables with nonnegative integer
coefficients.  A character is stored as an int64 array on graded
coordinates (e1, e2, e1+e2+e3 - dmin), with its lowest total degree dmin
kept beside the array.  The characters here are homogeneous or nearly
so, so the degree axis is short: a homogeneous character is one plane of
the exponent cube.  The change of coordinates is additive, so a product
is a slice-add convolution of the two arrays and the dmins add.

Coefficients stay in int64.  Before a product the bound
max|a| * sum|b| on its coefficients is checked, before a sum or
difference the bound max|a| + max|b|; when a bound reaches 2^63 the
operation raises CoefficientOverflow instead of wrapping.  The rank, a
sum of all coefficients, is taken in Python ints when it could wrap.

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


class CoefficientOverflow(ValueError):
    """An int64 coefficient could leave the int64 range."""


# float64 rounding of the bounds stays far inside this relative margin
_INT64_BOUND = float(2 ** 63) * (1 - 2 ** -40)


def _check_bound(bound, what):
    if bound >= _INT64_BOUND:
        raise CoefficientOverflow(
            f"int64 overflow: a character {what} could reach coefficients of "
            f"{bound:.3g}, beyond 2^63")


class Character3:
    """Polynomial in three variables as an int64 array on graded
    coordinates (e1, e2, e1+e2+e3 - dmin).  Instances are not mutated."""

    __slots__ = ("arr", "dmin", "_bounds")

    def __init__(self, arr, dmin):
        self.arr = arr
        self.dmin = dmin
        self._bounds = None

    @classmethod
    def zero(cls):
        return cls(np.zeros((0, 0, 0), dtype=np.int64), 0)

    @classmethod
    def one(cls):
        return cls(np.ones((1, 1, 1), dtype=np.int64), 0)

    @classmethod
    def from_terms(cls, terms):
        """From a dict {(e1, e2, e3): coefficient}."""
        if not terms:
            return cls.zero()
        degrees = [sum(m) for m in terms]
        dmin = min(degrees)
        arr = np.zeros((max(m[0] for m in terms) + 1,
                        max(m[1] for m in terms) + 1,
                        max(degrees) - dmin + 1), dtype=np.int64)
        for (e1, e2, e3), c in terms.items():
            arr[e1, e2, e1 + e2 + e3 - dmin] = c
        return cls(arr, dmin)

    def terms(self):
        """The nonzero coefficients as a dict {(e1, e2, e3): coefficient}."""
        e1, e2, g = np.nonzero(self.arr)
        e3 = g + self.dmin - e1 - e2
        return dict(zip(zip(e1.tolist(), e2.tolist(), e3.tolist()),
                        self.arr[e1, e2, g].tolist()))

    def is_zero(self):
        return not self.arr.any()

    def _abs_bounds(self):
        """(max |coefficient|, sum of |coefficients|) as floats."""
        if self._bounds is None:
            if self.arr.size:
                a = np.abs(self.arr)
                self._bounds = float(a.max()), float(a.sum(dtype=np.float64))
            else:
                self._bounds = 0.0, 0.0
        return self._bounds

    def rank(self):
        """Value at (1,1,1): the dimension of the representation."""
        if self._abs_bounds()[1] < _INT64_BOUND:
            return int(self.arr.sum())
        return int(self.arr.sum(dtype=object))

    def nnz(self):
        return int(np.count_nonzero(self.arr))

    def _placed(self, shape, dmin):
        """The array embedded in a box of the given shape and dmin."""
        if self.arr.shape == shape and self.dmin == dmin:
            return self.arr
        out = np.zeros(shape, dtype=np.int64)
        s1, s2, sg = self.arr.shape
        if self.arr.size:
            g = self.dmin - dmin
            out[:s1, :s2, g:g + sg] = self.arr
        return out

    def _aligned(self, other):
        """Both arrays in one common box, and its dmin."""
        parts = [c for c in (self, other) if c.arr.size]
        if not parts:
            return self.arr, other.arr, 0
        dmin = min(c.dmin for c in parts)
        top = max(c.dmin + c.arr.shape[2] for c in parts)
        shape = (max(c.arr.shape[0] for c in parts),
                 max(c.arr.shape[1] for c in parts), top - dmin)
        return self._placed(shape, dmin), other._placed(shape, dmin), dmin

    def __eq__(self, other):
        a, b, _ = self._aligned(other)
        return bool(np.array_equal(a, b))

    def _sum_checked(self, other, what):
        _check_bound(self._abs_bounds()[0] + other._abs_bounds()[0], what)
        return self._aligned(other)

    def __add__(self, other):
        a, b, dmin = self._sum_checked(other, "sum")
        return Character3(a + b, dmin)

    def __sub__(self, other):
        a, b, dmin = self._sum_checked(other, "difference")
        return Character3(a - b, dmin)

    def scale(self, c):
        _check_bound(self._abs_bounds()[0] * abs(c), "multiple")
        return Character3(self.arr * np.int64(c), self.dmin)

    def __mul__(self, other):
        a, b = self, other
        if a.is_zero() or b.is_zero():
            return Character3.zero()
        (max_a, sum_a), (max_b, sum_b) = a._abs_bounds(), b._abs_bounds()
        _check_bound(min(max_a * sum_b, max_b * sum_a), "product")
        if a.nnz() > b.nnz():
            a, b = b, a
        s1, s2, sg = b.arr.shape
        out = np.zeros(tuple(x + y - 1 for x, y in zip(a.arr.shape, b.arr.shape)),
                       dtype=np.int64)
        i1, i2, ig = np.nonzero(a.arr)
        for e1, e2, g, c in zip(i1.tolist(), i2.tolist(), ig.tolist(),
                                a.arr[i1, i2, ig].tolist()):
            out[e1:e1 + s1, e2:e2 + s2, g:g + sg] += c * b.arr
        return Character3(out, a.dmin + b.dmin)

    def adams(self, t):
        """Substitute t-th powers of the variables."""
        if t == 1 or not self.arr.size:
            return self
        i1, i2, ig = np.nonzero(self.arr)
        out = np.zeros(tuple((s - 1) * t + 1 for s in self.arr.shape),
                       dtype=np.int64)
        out[i1 * t, i2 * t, ig * t] = self.arr[i1, i2, ig]
        return Character3(out, self.dmin * t)

    def exact_div_int(self, k):
        """The quotient by k, in the smallest box that holds it."""
        q, r = np.divmod(self.arr, np.int64(k))
        if r.any():
            raise NotACharacter(f"coefficients not divisible by {k}")
        nonzero = q != 0
        if not nonzero.any():
            return Character3.zero()
        top1 = np.flatnonzero(nonzero.any(axis=(1, 2)))[-1] + 1
        top2 = np.flatnonzero(nonzero.any(axis=(0, 2)))[-1] + 1
        degrees = np.flatnonzero(nonzero.any(axis=(0, 1)))
        lo, hi = degrees[0], degrees[-1] + 1
        return Character3(q[:top1, :top2, lo:hi].copy(), self.dmin + int(lo))

    def __repr__(self):
        return f"Character3(rank={self.rank()}, nnz={self.nnz()})"


def symmetric_power_char(d):
    """Character of S^d of the rank-3 bundle: the complete homogeneous
    symmetric polynomial h_d, of rank (d+1)(d+2)/2."""
    if d < 0:
        raise ValueError("negative symmetric power")
    e = np.arange(d + 1)
    arr = (np.add.outer(e, e) <= d).astype(np.int64)
    return Character3(arr[:, :, None], d)


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

# the orbit of a strictly decreasing exponent vector in the alternant:
# the exponents that go to the first two coordinates, and the sign
_SIGNED_PERMUTATIONS = (((0, 1), 1), ((0, 2), -1), ((1, 0), -1),
                        ((1, 2), 1), ((2, 0), 1), ((2, 1), -1))


def weyl_dim(b):
    """Dimension of the irreducible with highest weight (b1,b2,b3)."""
    b1, b2, b3 = b
    return (b1 - b2 + 1) * (b2 - b3 + 1) * (b1 - b3 + 2) // 2


def schur_decompose(c):
    """Multiset of Schur triples with multiplicities summing to c.

    Raises NotACharacter when a multiplicity comes out negative or the
    signed orbit reconstruction fails (non-symmetric or non-integral
    input)."""
    alt = c * _ANTISYMMETRIZER
    arr = alt.arr
    e1, e2, g = np.nonzero(arr)
    e3 = g + alt.dmin - e1 - e2
    lead = (e1 > e2) & (e2 > e3)
    lam, g = (e1[lead], e2[lead], e3[lead]), g[lead]
    mult = arr[lam[0], lam[1], g]
    negative = np.flatnonzero(mult < 0)
    if negative.size:
        i = negative[0]
        b = (int(lam[0][i]) - 2, int(lam[1][i]) - 1, int(lam[2][i]))
        raise NotACharacter(f"negative multiplicity {int(mult[i])} at {b}")
    # certify: rebuilding the alternant from the list must reproduce it
    rebuilt = np.zeros_like(arr)
    for (i, j), sign in _SIGNED_PERMUTATIONS:
        x, y = lam[i], lam[j]
        if x.size and (x.max() >= arr.shape[0] or y.max() >= arr.shape[1]):
            raise NotACharacter("decomposition does not rebuild the character")
        rebuilt[x, y, g] = sign * mult
    if not np.array_equal(rebuilt, arr):
        raise NotACharacter("decomposition does not rebuild the character")
    # weyl_dim at b = lam - (2,1,0); the sum runs in Python ints
    dims = (lam[0] - lam[1]) * (lam[1] - lam[2]) * (lam[0] - lam[2]) // 2
    mult = mult.tolist()
    if sum(d * m for d, m in zip(dims.tolist(), mult)) != c.rank():
        raise NotACharacter("rank bookkeeping failed")
    triples = list(zip(zip((lam[0] - 2).tolist(), (lam[1] - 1).tolist(),
                           lam[2].tolist()), mult))
    triples.sort(reverse=True)
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

    def all_verdicts(self):
        """All pairs 1 <= j <= rank, 0 <= k <= j; returns (verdicts, all_vanish)."""
        verdicts = {}
        for j in range(1, self.rank_q + 1):
            for k in range(0, j + 1):
                verdicts[(j, k)] = self.verdict(j, k)
        all_vanish = all(v.verdict == "vanishes" for v in verdicts.values())
        return verdicts, all_vanish

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
    return VanishingGrid(n, degrees).all_verdicts()
