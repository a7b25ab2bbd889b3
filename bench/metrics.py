"""The metrics the benchmark reports, as declared in BENCHMARK.json.

End-to-end metrics come from an untraced run, are reported on every
workload and carry the bound by which a change may worsen them:

* ``setup_s``: median over the set-ups of one run of a fresh-interpreter
  ``import coniccount`` plus the untimed warm-up;
* ``wall_s``: median seconds per round of the workload;
* ``ops_per_s``: checked operations per second over all rounds --
  certified trials on the count workloads, verified and split conics
  weighted by orbit degree on reconstruct-split, grid verdicts and
  formula rows on certify-grid;
* ``conic_coverage``: conics accounted for over conics expected --
  certified counts over the closed formula on the count workloads,
  verified and split conics over the count on reconstruct-split,
  agreeing formula rows on certify-grid;
* ``peak_rss_mb``: the process's peak resident set.

Failed operations are not a metric (a correct run has none): the result
line reports them as ``failed`` of ``attempted``.

Per-layer metrics come from a traced run; each names the end-to-end
metric and the workload it should move.
"""

from collections import namedtuple

EndToEnd = namedtuple("EndToEnd", "name unit better bound")
Layer = namedtuple("Layer", "name unit better moves")

END_TO_END = [
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25),
    EndToEnd("conic_coverage", "ratio", "higher", 0.2),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
]

COUNT = "ops_per_s on count-quartic and count-ladder"
QUARTIC = "ops_per_s on count-quartic"
LADDER = "ops_per_s on count-ladder"
SPLIT = "ops_per_s on reconstruct-split"
GRID = "wall_s on certify-grid"
NONE = "none: a micro-benchmark, gates nothing"

PER_LAYER = [
    Layer("groebner.groebner_basis.self_s", "s", "lower", COUNT),
    Layer("groebner.normal_form.self_s", "s", "lower", COUNT),
    Layer("groebner.normal_form.calls", "count", "lower", COUNT),
    Layer("groebner.spair_zero_frac", "ratio", "lower", COUNT),
    Layer("groebner.basis_size", "count", "lower", COUNT),
    Layer("groebner.quotient_dim", "count", "lower", COUNT),
    Layer("groebner.eliminant_of_linear_form.total_s", "s", "lower", QUARTIC),
    Layer("groebner.multiplication_matrix.calls", "count", "lower", SPLIT),
    Layer("groebner.multiplication_matrix.total_s", "s", "lower", SPLIT),
    Layer("groebner.solve_zero_dimensional.total_s", "s", "lower", SPLIT),
    Layer("linalg.rref.self_s", "s", "lower", SPLIT),
    Layer("linalg.rref.calls", "count", "lower", SPLIT),
    Layer("linalg.rref.cells", "count", "lower", SPLIT),
    Layer("linalg.charpoly.self_s", "s", "lower", QUARTIC),
    Layer("linalg.nullspace.self_s", "s", "lower", SPLIT),
    Layer("unipoly.factor_squarefree.self_s", "s", "lower", SPLIT),
    Layer("unipoly.is_squarefree.self_s", "s", "lower", SPLIT),
    Layer("unipoly.squarefree_root_count.self_s", "s", "lower", COUNT),
    Layer("resultant.sylvester_resultant.self_s", "s", "lower", LADDER),
    Layer("conic_system.random_ci.self_s", "s", "lower", LADDER),
    Layer("conic_system.restrict_to_plane_family.self_s", "s", "lower", LADDER),
    Layer("conic_system.cascade_solve.self_s", "s", "lower", LADDER),
    Layer("conic_system.retries", "count", "lower", LADDER),
    Layer("conic_system.reconstruct_conic.self_s", "s", "lower", SPLIT),
    Layer("counting.DerivedSolver.__init__.self_s", "s", "lower", LADDER),
    Layer("counting.DerivedSolver.count_and_certify.self_s", "s", "lower", LADDER),
    Layer("counting.DerivedSolver.points.self_s", "s", "lower", SPLIT),
    Layer("counting.verify_conic.self_s", "s", "lower", SPLIT),
    Layer("counting.route.binary", "count", "higher", LADDER),
    Layer("counting.route.resultant", "count", "higher", LADDER),
    Layer("counting.route.groebner", "count", "lower", LADDER),
    Layer("splitting.splitting_type.self_s", "s", "lower", SPLIT),
    Layer("splitting.euler_jacobian_complex.self_s", "s", "lower", SPLIT),
    Layer("splitting.hypercohomology_dims.calls", "count", "lower", SPLIT),
    Layer("splitting.hypercohomology_dims.total_s", "s", "lower", SPLIT),
    Layer("splitting.find_line_through_point.total_s", "s", "lower", SPLIT),
    Layer("characters.vanishing_grid.total_s", "s", "lower", GRID),
    Layer("characters.schur_decompose.self_s", "s", "lower", GRID),
    Layer("characters.schur_decompose.calls", "count", "lower", GRID),
    Layer("characters.grid_pairs", "count", "higher", GRID),
    Layer("quantum.formulas_table.self_s", "s", "lower", GRID),
    Layer("trace.overhead_s", "s", "lower", "the traced run itself"),
    Layer("trace.overhead_frac", "ratio", "lower", "the traced run itself"),
    Layer("trace.uncovered_frac", "ratio", "lower", "the traced run itself"),
    Layer("micro.PrimeField.mul_ns", "ns", "lower", NONE),
    Layer("micro.PrimeField.inv_ns", "ns", "lower", NONE),
    Layer("micro.ExtensionField6.mul_us", "us", "lower", NONE),
    Layer("micro.ExtensionField6.inv_us", "us", "lower", NONE),
    Layer("micro.MultiPoly.mul_ms", "ms", "lower", NONE),
    Layer("micro.MultiPoly.leading_us", "us", "lower", NONE),
    Layer("micro.normal_form_ms", "ms", "lower", NONE),
    Layer("micro.charpoly72_ms", "ms", "lower", NONE),
    Layer("micro.factor_squarefree72_ms", "ms", "lower", NONE),
]
