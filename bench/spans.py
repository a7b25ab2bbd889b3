"""Call spans around coniccount's layer functions, for the traced run.

A ``Tracer`` replaces each target function by a timing wrapper in every
coniccount namespace that looks it up: ``counting`` imports
``groebner_basis``, ``cascade_solve`` and others by name, so patching
only the defining module would miss those calls.  Methods are patched on
their class.  ``remove`` puts every original object back.

Each wrapper records one span: its calls, its total time (outermost
activation only, so recursion is not counted twice) and its self time,
the span's duration minus the part covered by the spans it caused.
Spans with no enclosing span add to ``covered``, so the caller can work
out the share of wall time no span covers.

A few spans also feed structural counters, read from their arguments and
results: S-pair reductions to zero inside ``groebner_basis``, the peak
basis size, the quotient dimension, the cells of every ``rref`` input,
the counting route, grid pairs, and instances rejected as degenerate.
"""

import functools
import sys
import time

PACKAGE = "coniccount"

# (module, qualified name) of every traced function
TARGETS = [
    ("conic_system", "random_ci"),
    ("conic_system", "restrict_to_plane_family"),
    ("conic_system", "cascade_solve"),
    ("conic_system", "reconstruct_conic"),
    ("counting", "DerivedSolver.__init__"),
    ("counting", "DerivedSolver.count_and_certify"),
    ("counting", "DerivedSolver.points"),
    ("counting", "verify_conic"),
    ("groebner", "groebner_basis"),
    ("groebner", "normal_form"),
    ("groebner", "quotient_count"),
    ("groebner", "multiplication_matrix"),
    ("groebner", "eliminant_of_linear_form"),
    ("groebner", "solve_zero_dimensional"),
    ("linalg", "rref"),
    ("linalg", "charpoly"),
    ("linalg", "nullspace"),
    ("unipoly", "is_squarefree"),
    ("unipoly", "squarefree_root_count"),
    ("unipoly", "factor_squarefree"),
    ("resultant", "sylvester_resultant"),
    ("splitting", "splitting_type"),
    ("splitting", "euler_jacobian_complex"),
    ("splitting", "hypercohomology_dims"),
    ("splitting", "find_line_through_point"),
    ("characters", "vanishing_grid"),
    ("characters", "schur_decompose"),
    ("quantum", "formulas_table"),
]

# spans whose DegenerateInstance makes the pipeline resample or retry
RETRY_SPANS = {"conic_system.cascade_solve", "counting.DerivedSolver.__init__",
               "counting.DerivedSolver.count_and_certify"}

# counters that keep a peak instead of a sum
PEAK_COUNTERS = {"groebner.basis_size", "groebner.quotient_dim"}


class Tracer:
    """Aggregated spans and counters for a set of patched functions."""

    def __init__(self):
        self.values = {}
        self.covered = 0.0
        self._stack = []
        self._depth = {}
        self._patched = []

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, qualname in TARGETS:
            name = f"{module_name}.{qualname}"
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- recording ---------------------------------------------------------

    def add(self, key, amount):
        if key in PEAK_COUNTERS:
            self.values[key] = max(self.values.get(key, 0), amount)
        else:
            self.values[key] = self.values.get(key, 0) + amount

    def _wrap(self, name, fn):
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter
        after = _AFTER.get(name)
        retry = name in RETRY_SPANS
        is_groebner = name == "groebner.groebner_basis"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # frame: [time covered by child spans, reductions run inside
            # groebner_basis as [count, zero results, peak basis size]]
            frame = [0.0, [0, 0, 0] if is_groebner else None]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if retry and type(exc).__name__ == "DegenerateInstance":
                    self.add("conic_system.retries", 1)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                self.add(f"{name}.calls", 1)
                self.add(f"{name}.self_s", dt - frame[0])
                if not depth[name]:
                    self.add(f"{name}.total_s", dt)
                if stack:
                    stack[-1][0] += dt
                else:
                    self.covered += dt
            if after is not None:
                after(self, stack[-1] if stack else None, frame, args, result)
            return result

        wrapper.__traced__ = True
        return wrapper


# -- counters read at span boundaries ------------------------------------------


def _after_normal_form(tracer, parent, frame, args, result):
    # inside groebner_basis: count the reduction, whether it came out zero,
    # and the size of the basis it reduced against
    if parent is not None and parent[1] is not None:
        acc = parent[1]
        acc[0] += 1
        acc[1] += 0 if result else 1
        acc[2] = max(acc[2], len(args[1]))


def _after_groebner_basis(tracer, parent, frame, args, result):
    reductions, zeros, peak = frame[1]
    # the final tail reduction runs one normal form per element when the
    # reduced basis has more than one; the rest reduced S-polynomials
    tails = len(result) if len(result) > 1 else 0
    tracer.add("groebner.spair_reductions", reductions - tails)
    tracer.add("groebner.spair_zero", zeros)
    tracer.add("groebner.basis_size", max(peak, len(result)))


def _after_quotient_count(tracer, parent, frame, args, result):
    if isinstance(result, int):
        tracer.add("groebner.quotient_dim", result)


def _after_rref(tracer, parent, frame, args, result):
    mat = args[1]
    tracer.add("linalg.rref.cells", len(mat) * (len(mat[0]) if mat else 0))


def _after_solver_init(tracer, parent, frame, args, result):
    tracer.add(f"counting.route.{args[0].route}", 1)


def _after_vanishing_grid(tracer, parent, frame, args, result):
    tracer.add("characters.grid_pairs", len(result[0]))


_AFTER = {
    "groebner.normal_form": _after_normal_form,
    "groebner.groebner_basis": _after_groebner_basis,
    "groebner.quotient_count": _after_quotient_count,
    "linalg.rref": _after_rref,
    "counting.DerivedSolver.__init__": _after_solver_init,
    "characters.vanishing_grid": _after_vanishing_grid,
}
