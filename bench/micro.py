"""Micro-benchmarks of the primitives under the pipeline's layers.

Inputs come from the workload seed.  Each figure is the median over a
few repetitions of a batch; they are per-layer figures and gate nothing.
"""

import random
import statistics
import time

PRIME = 10007
REPEATS = 5


def _median_time(fn, batch, repeats=REPEATS):
    """Median seconds per call of fn over batches of size batch."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - t0) / batch)
    return statistics.median(times)


def _per_element(fn, items, outer):
    """Median seconds per element of one pass fn(items), repeated outer times."""
    return _median_time(lambda: fn(items), outer) / len(items)


def _irreducible_sextic(cc, rng):
    F = cc.PrimeField(PRIME)
    while True:
        coeffs = [rng.randrange(PRIME) for _ in range(6)] + [1]
        f = cc.unipoly.UniPoly(F, coeffs)
        if [g.degree for g in cc.unipoly.factor_squarefree(f, rng)] == [6]:
            return coeffs


def _random_squarefree(cc, F, degree, rng):
    while True:
        f = cc.unipoly.UniPoly(F, [rng.randrange(PRIME) for _ in range(degree)] + [1])
        if cc.unipoly.is_squarefree(f):
            return f


def _random_poly(ring, degree, rng, density=1.0):
    terms = {}
    for d in range(degree + 1):
        for mon in ring.monomials_of_degree(d):
            if rng.random() < density:
                terms[mon] = rng.randrange(1, PRIME)
    return ring.from_dict(terms)


def _chart_basis(cc, rng):
    """Reduced Groebner basis of a (2,3) derived system on an affine chart."""
    md = cc.dimension_from_degrees((2, 3))
    *_, solver, _ = cc.counting.run_trial(md, "secant", PRIME, rng.randrange(10 ** 6))
    red = solver.reduction
    m = len(red.free)
    chart = cc.multipoly.PolyRing(red.field, m - 1)
    images = [chart.gen(j) for j in range(m - 1)] + [chart.one()]
    return cc.groebner.groebner_basis([eq.substitute(chart, images) for eq in red.equations]), chart


def run(cc, seed):
    """Seconds-scaled timings keyed by per-layer metric name."""
    rng = random.Random(f"micro:{seed}")
    F = cc.PrimeField(PRIME)
    pairs = [(rng.randrange(1, PRIME), rng.randrange(1, PRIME)) for _ in range(2000)]
    out = {
        "micro.PrimeField.mul_ns": _per_element(
            lambda ps: [F.mul(a, b) for a, b in ps], pairs, 20) * 1e9,
        "micro.PrimeField.inv_ns": _per_element(
            lambda ps: [F.inv(a) for a, _ in ps], pairs, 5) * 1e9,
    }

    E = cc.ExtensionField(PRIME, _irreducible_sextic(cc, rng))
    elems = [(E.random_element(rng), E.random_element(rng)) for _ in range(300)]
    elems = [(a, b) for a, b in elems if a != E.zero]
    out["micro.ExtensionField6.mul_us"] = _per_element(
        lambda es: [E.mul(a, b) for a, b in es], elems, 5) * 1e6
    out["micro.ExtensionField6.inv_us"] = _per_element(
        lambda es: [E.inv(a) for a, _ in es], elems, 3) * 1e6

    ring = cc.multipoly.PolyRing(F, 4)
    f, g = _random_poly(ring, 4, rng), _random_poly(ring, 4, rng)
    out["micro.MultiPoly.mul_ms"] = _median_time(lambda: f * g, 3) * 1e3
    product = f * g
    out["micro.MultiPoly.leading_us"] = _median_time(product.leading, 50) * 1e6

    basis, chart = _chart_basis(cc, rng)
    polys = [_random_poly(chart, 5, rng) for _ in range(10)]
    out["micro.normal_form_ms"] = _per_element(
        lambda ps: [cc.groebner.normal_form(p, basis) for p in ps], polys, 1) * 1e3

    mat = [[rng.randrange(PRIME) for _ in range(72)] for _ in range(72)]
    out["micro.charpoly72_ms"] = _median_time(
        lambda: cc.linalg.charpoly(F, mat), 1, repeats=3) * 1e3

    elim = _random_squarefree(cc, F, 72, rng)
    out["micro.factor_squarefree72_ms"] = _median_time(
        lambda: cc.unipoly.factor_squarefree(elim, random.Random(seed)), 1, repeats=1) * 1e3
    return out
