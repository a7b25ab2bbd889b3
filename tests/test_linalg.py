"""Cross-check of the mod-p linear algebra against sympy's DomainMatrix
over GF(p), on seeded random matrices, singular ones included."""

import random

import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from coniccount import linalg
from coniccount.fields import PrimeField

PRIMES = (101, 10007)


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


@pytest.mark.parametrize("p", PRIMES)
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


@pytest.mark.parametrize("p", PRIMES)
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


@pytest.mark.parametrize("p", PRIMES)
def test_charpoly_matches_sympy(p):
    F = PrimeField(p)
    rng = random.Random(f"charpoly:{p}")
    for _ in range(30):
        n = rng.randrange(1, 9)
        mat = _random_matrix(rng, p, n, n, rng.randrange(0, n + 1))
        chi = linalg.charpoly(F, mat)
        ref = [int(c) % p for c in _sympy(p, mat).charpoly()]
        assert list(chi.coeffs) == ref[::-1]
