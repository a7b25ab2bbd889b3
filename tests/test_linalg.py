"""Cross-check of the mod-p linear algebra against sympy's DomainMatrix
over GF(p), on seeded random matrices, singular ones included; and of
the int64 numpy kernels (row reduction, rank over GF(p^k) through the
regular representation, characteristic polynomial, linear change of
variables) against the pure-Python code they stand in for."""

import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from coniccount import linalg
from coniccount.fields import ExtensionField, PrimeField, int64_modulus
from coniccount.multipoly import PolyRing, linear_images
from coniccount.unipoly import UniPoly, factor_squarefree, is_squarefree

INT64_PRIMES = (101, 10007, 65537)


def _random_matrix(rng, p, nrows, ncols, rank_cap):
    """A random matrix of rank at most rank_cap: each row past the first
    rank_cap is a random combination of earlier rows."""
    rows = []
    for i in range(nrows):
        if i < rank_cap:
            rows.append([rng.randrange(p) for _ in range(ncols)])
        else:
            coeffs = [rng.randrange(p) for _ in range(rank_cap)]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) % p
                         for j in range(ncols)])
    rng.shuffle(rows)
    return rows


def _cases(p, count=40):
    rng = random.Random(f"linalg:{p}")
    for _ in range(count):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        yield _random_matrix(rng, p, nrows, ncols, rng.randrange(0, nrows + 1))


def _sympy(p, mat):
    K = GF(p)
    return DomainMatrix([[K(c) for c in row] for row in mat],
                        (len(mat), len(mat[0])), K)


def _ints(p, dm):
    return [[int(c) % p for c in row] for row in dm.to_list()]


@pytest.mark.parametrize("p", INT64_PRIMES)
def test_rref_and_rank_match_sympy(p):
    F = PrimeField(p)
    singular = 0
    for mat in _cases(p):
        rows, pivots = linalg.rref(F, mat)
        ref, ref_pivots = _sympy(p, mat).rref()
        assert rows == _ints(p, ref)
        assert tuple(pivots) == tuple(ref_pivots)
        assert linalg.rank(F, mat) == _sympy(p, mat).rank()
        singular += linalg.rank(F, mat) < min(len(mat), len(mat[0]))
    assert singular >= 10


@pytest.mark.parametrize("p", INT64_PRIMES)
def test_nullspace_matches_sympy(p):
    F = PrimeField(p)
    for mat in _cases(p):
        ncols = len(mat[0])
        basis = linalg.nullspace(F, mat)
        assert len(basis) == ncols - _sympy(p, mat).rank()
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in mat)
        if basis:
            # the same space: both bases have the same reduced echelon form
            ref = _sympy(p, mat).nullspace()
            assert _ints(p, _sympy(p, basis).rref()[0]) == \
                _ints(p, ref.rref()[0])


@pytest.mark.parametrize("p", INT64_PRIMES + (2 ** 31 - 1,))
def test_rref_kernels_agree(p):
    # zero rows and columns, single rows and columns, wide and tall; the
    # last prime is the largest with 2 p^2 < 2^63
    F = PrimeField(p)
    assert int64_modulus(F, 2) == p
    rng = random.Random(f"rref-kernels:{p}")
    shapes = [(1, 1), (1, 7), (7, 1), (3, 9), (9, 3), (12, 12), (30, 45)]
    for nrows, ncols in shapes:
        for rank_cap in {0, 1, min(nrows, ncols) // 2, min(nrows, ncols)}:
            mat = _random_matrix(rng, p, nrows, ncols, rank_cap)
            for j in rng.sample(range(ncols), ncols // 3):
                for row in mat:
                    row[j] = 0
            ref = linalg._rref_python(F, mat)
            assert linalg._rref_int64(mat, p) == ref
            assert linalg.rref(F, mat) == ref
    assert linalg._rref_int64([[0] * 5] * 4, p) == ([[0] * 5] * 4, [])
    assert linalg._rref_int64([[], []], p) == ([[], []], [])
    assert linalg._rref_int64([], p) == ([], [])


def _irreducible_modulus(rng, p, k):
    F = PrimeField(p)
    while True:
        f = UniPoly(F, [rng.randrange(p) for _ in range(k)] + [1])
        if is_squarefree(f) and [g.degree for g in factor_squarefree(f, rng)] == [k]:
            return list(f.coeffs)


def _product(L, b, c):
    out = []
    for row in b:
        new = []
        for j in range(len(c[0])):
            acc = L.zero
            for x, crow in zip(row, c):
                acc = L.add(acc, L.mul(x, crow[j]))
            new.append(acc)
        out.append(new)
    return out


def _full_rank(L, rng, nrows, ncols, rank):
    """A nrows x rank (tall) or rank x ncols (wide) matrix over L holding
    an identity block at random rows or columns, so of rank ``rank``."""
    tall = nrows != rank
    n = nrows if tall else ncols
    lines = [[L.one if i == j else L.zero for j in range(rank)]
             for i in range(rank)]
    lines += [[L.random_element(rng) for _ in range(rank)]
              for _ in range(n - rank)]
    rng.shuffle(lines)
    return lines if tall else linalg.transpose(lines)


@pytest.mark.parametrize("k", range(2, 7))
def test_extension_rank_matches_python_rref(k):
    # rank(B*C) = s for B of size r x s and C of size s x c, both of rank
    # s; a fresh irreducible modulus for every prime
    rng = random.Random(f"extension-rank:{k}")
    for p in INT64_PRIMES:
        L = ExtensionField(p, _irreducible_modulus(rng, p, k))
        assert int64_modulus(PrimeField(p), 2 * k) == p
        for _ in range(6):
            r, c = rng.randrange(1, 9), rng.randrange(1, 9)
            s = rng.randrange(0, min(r, c) + 1)
            if s:
                mat = _product(L, _full_rank(L, rng, r, s, s),
                               _full_rank(L, rng, s, c, s))
            else:
                mat = [[L.zero] * c for _ in range(r)]
            assert linalg.rank(L, mat) == s
            assert len(linalg._rref_python(L, mat)[1]) == s


def test_rank_beyond_int64_takes_the_python_path(monkeypatch):
    p = 2 ** 61 - 1
    F = PrimeField(p)
    L = ExtensionField(p, [1, 0, 1])  # p = 3 mod 4: -1 is not a square
    assert int64_modulus(F, 2) is None and int64_modulus(L, 2) is None

    def forbidden(*args):
        raise AssertionError("int64 kernel used where 2 p^2 overflows")

    monkeypatch.setattr(linalg, "_rref_int64", forbidden)
    monkeypatch.setattr(linalg, "_regular_representation", forbidden)
    rng = random.Random("rank-big")
    mat = _random_matrix(rng, p, 6, 8, 4)
    rows, pivots = linalg.rref(F, mat)
    ref, ref_pivots = _sympy(p, mat).rref()
    assert rows == _ints(p, ref) and tuple(pivots) == tuple(ref_pivots)
    assert linalg.rank(F, mat) == 4
    assert len(linalg.nullspace(F, mat)) == 4
    lifted = [[L.from_base(x) for x in row] for row in mat]
    assert linalg.rank(L, lifted) == 4


# -- characteristic polynomials and the int64 kernels -------------------------


def _sympy_charpoly(p, mat):
    """sympy's characteristic polynomial, low degree first."""
    return [int(c) % p for c in _sympy(p, mat).charpoly()][::-1]


def _sparse_matrix(rng, p, n, density):
    return [[rng.randrange(1, p) if rng.random() < density else 0
             for _ in range(n)] for _ in range(n)]


def _block_diagonal(rng, p, n):
    """A random block-diagonal matrix of size n, blocks of size 1 to 12,
    with its rows and columns permuted alike, and its blocks."""
    blocks, size = [], 0
    while size < n:
        s = min(rng.randrange(1, 13), n - size)
        blocks.append(_random_matrix(rng, p, s, s, rng.randrange(0, s + 1)))
        size += s
    mat = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            mat[at + i][at:at + len(block)] = row
        at += len(block)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[mat[i][j] for j in perm] for i in perm], blocks


@pytest.mark.parametrize("p", INT64_PRIMES)
def test_charpoly_matches_sympy(p):
    # both paths: the int64 kernel, which charpoly takes at these primes,
    # and the pure-Python code; sparse matrices make the reduction pivot
    F = PrimeField(p)
    rng = random.Random(f"charpoly:{p}")
    for n in range(1, 17):
        for mat in (_random_matrix(rng, p, n, n, rng.randrange(0, n + 1)),
                    _sparse_matrix(rng, p, n, 0.2)):
            ref = _sympy_charpoly(p, mat)
            assert list(linalg.charpoly(F, mat).coeffs) == ref
            assert linalg._charpoly_int64(mat, p) == ref
            assert list(linalg._charpoly_python(F, mat).coeffs) == ref


@pytest.mark.parametrize("p", INT64_PRIMES)
def test_charpoly_kernels_agree_up_to_150(p):
    # a block-diagonal matrix has zero subdiagonal columns, where the
    # reduction skips a pivot; its charpoly is the product over the blocks
    F = PrimeField(p)
    rng = random.Random(f"charpoly-blocks:{p}")
    for n in (24, 40, 72, 101, 150):
        mat, blocks = _block_diagonal(rng, p, n)
        expect = UniPoly.constant(F, F.one)
        for block in blocks:
            expect = expect * UniPoly(F, _sympy_charpoly(p, block))
        assert linalg.charpoly(F, mat) == expect
        assert linalg._charpoly_python(F, mat) == expect
    for n in (24, 72) if p != 10007 else (24, 72, 150):
        mat = _sparse_matrix(rng, p, n, 0.5)
        assert linalg.charpoly(F, mat) == linalg._charpoly_python(F, mat)


def test_charpoly_beyond_int64_takes_the_python_path(monkeypatch):
    p = 2 ** 31 - 1
    F = PrimeField(p)
    assert int64_modulus(F, 13) is None

    def forbidden(*args):
        raise AssertionError("int64 kernel used where 13 p^2 overflows")

    monkeypatch.setattr(linalg, "_charpoly_int64", forbidden)
    rng = random.Random("charpoly-big")
    mat = _random_matrix(rng, p, 12, 12, 12)
    assert list(linalg.charpoly(F, mat).coeffs) == _sympy_charpoly(p, mat)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_linear_substitute_matches_substitute(data):
    p = data.draw(st.sampled_from(INT64_PRIMES))
    F = PrimeField(p)
    k = data.draw(st.integers(1, 4))
    affine = data.draw(st.booleans())
    m = data.draw(st.integers(1 + affine, 5))
    d = data.draw(st.integers(1, 5))
    element = st.one_of(st.just(0), st.integers(1, p - 1))
    source = PolyRing(F, k)
    target = PolyRing(F, m - affine)
    mons = source.monomials_of_degree(d)
    f = source.from_dict(dict(zip(mons, data.draw(
        st.lists(element, min_size=len(mons), max_size=len(mons))))))
    mat = data.draw(st.lists(st.lists(element, min_size=m, max_size=m),
                             min_size=k, max_size=k))
    assert int64_modulus(F, k) == p
    expect = f.substitute(target, linear_images(target, mat, affine))
    assert f.linear_substitute(target, mat, affine) == expect
