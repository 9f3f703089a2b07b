"""Per-layer tracing from outside the library.

`Tracer.install` replaces public functions of the tricm modules with
wrappers that record a span per call; `Tracer.remove` puts the originals
back.  No library code changes.  Modules call each other through module
attributes (`complexes.link`, `homology.rank`, ...), so the wrappers see
calls made inside the library as well as calls from the CLI.

A span's self time is its duration minus the durations of the wrapped
spans it contains, so the self times of one `cli.main` call add up to its
duration.  A wrap point that the library no longer has is reported as
absent, never as a zero.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, function) pairs that get a span, outermost layer first
WRAP_POINTS = (
    ("cli", "main"),
    ("graphs", "triangular"),
    ("graphs", "independent_sets"),
    ("graphs", "maximal_independent_sets"),
    ("complexes", "independence_complex"),
    ("complexes", "from_faces"),
    ("complexes", "link"),
    ("complexes", "restrict_relabel"),
    ("homology", "boundary_matrix"),
    ("homology", "rank"),
    ("homology", "reduced_betti_table"),
    ("cmcheck", "reisner_check"),
    ("cmcheck", "reisner_triangular"),
    ("cmcheck", "classify_triangular"),
    ("cmcheck", "h_screen"),
    ("ideals", "hsop"),
    ("ideals", "verify_regular"),
)

# (metric, unit, wrap point it needs); every value is per job
METRICS = (
    ("graphs.triangular.self_s", "s", "graphs.triangular"),
    ("graphs.independent_sets.self_s", "s", "graphs.independent_sets"),
    ("graphs.independent_sets.calls", "count", "graphs.independent_sets"),
    ("graphs.maximal_independent_sets.self_s", "s", "graphs.maximal_independent_sets"),
    ("graphs.maximal_independent_sets.calls", "count", "graphs.maximal_independent_sets"),
    ("complexes.independence_complex.self_s", "s", "complexes.independence_complex"),
    ("complexes.independence_complex.faces", "count", "complexes.independence_complex"),
    ("complexes.from_faces.self_s", "s", "complexes.from_faces"),
    ("complexes.from_faces.calls", "count", "complexes.from_faces"),
    ("complexes.link.self_s", "s", "complexes.link"),
    ("complexes.link.calls", "count", "complexes.link"),
    ("complexes.restrict_relabel.self_s", "s", "complexes.restrict_relabel"),
    ("homology.boundary_matrix.self_s", "s", "homology.boundary_matrix"),
    ("homology.boundary_matrix.nnz", "count", "homology.boundary_matrix"),
    ("homology.rank.q.self_s", "s", "homology.rank"),
    ("homology.rank.q.calls", "count", "homology.rank"),
    ("homology.rank.q.nnz", "count", "homology.rank"),
    ("homology.rank.p.self_s", "s", "homology.rank"),
    ("homology.rank.p.calls", "count", "homology.rank"),
    ("homology.rank.p.cells", "count", "homology.rank"),
    ("homology.reduced_betti_table.self_s", "s", "homology.reduced_betti_table"),
    ("homology.reduced_betti_table.calls", "count", "homology.reduced_betti_table"),
    ("cmcheck.reisner_check.self_s", "s", "cmcheck.reisner_check"),
    ("cmcheck.reisner_triangular.self_s", "s", "cmcheck.reisner_triangular"),
    ("cmcheck.classify_triangular.self_s", "s", "cmcheck.classify_triangular"),
    ("cmcheck.h_screen.self_s", "s", "cmcheck.h_screen"),
    ("cmcheck.link_distinct_ratio", "1", "complexes.link"),
    ("ideals.hsop.self_s", "s", "ideals.hsop"),
    ("ideals.verify_regular.self_s", "s", "ideals.verify_regular"),
    ("ideals.verify_regular.calls", "count", "ideals.verify_regular"),
    ("ideals.verify_regular.degrees", "count", "ideals.verify_regular"),
    ("cli.main.self_s", "s", "cli.main"),
    ("cli.main.calls", "count", "cli.main"),
)


def _matrix_arg(args, kwargs):
    return args[0] if args else kwargs["m"]


def _rank_span(args, kwargs) -> str:
    """`homology.rank` splits by field: `q` over the rationals, `p` mod p."""
    field = args[1] if len(args) > 1 else kwargs.get("field")
    return "homology.rank.q" if getattr(field, "characteristic", 0) == 0 else "homology.rank.p"


def _faces(c) -> int:
    return sum(c.face_counts()) + (1 if c.has_empty_face else 0)


# span -> ((counter, f(args, kwargs, result)), ...), added up over the calls
COUNTERS = {
    "complexes.independence_complex": (("faces", lambda a, k, r: _faces(r)),),
    "homology.boundary_matrix": (("nnz", lambda a, k, r: len(r.entries)),),
    "homology.rank.q": (("nnz", lambda a, k, r: len(_matrix_arg(a, k).entries)),),
    "homology.rank.p": (
        ("cells", lambda a, k, r: _matrix_arg(a, k).row_count * _matrix_arg(a, k).col_count),
    ),
    "ideals.verify_regular": (("degrees", lambda a, k, r: len(r.per_degree)),),
}


class Tracer:
    """Spans and counters for one traced phase, totalled over its jobs."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._saved: list = []
        self._stack: list[list] = []  # [span name, time covered by children]

    def install(self):
        for mod_name, attr in WRAP_POINTS:
            point = f"{mod_name}.{attr}"
            try:
                module = importlib.import_module(f"tricm.{mod_name}")
            except ModuleNotFoundError:
                self.absent.add(point)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.add(point)
                continue
            span = _rank_span if point == "homology.rank" else point
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span))

    def remove(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, span):
        totals, stack = self.totals, self._stack

        def traced(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            if name == "homology.reduced_betti_table" and any(
                s[0] == "cmcheck.reisner_check" for s in stack
            ):
                totals["cmcheck.reisner_check.betti_tables"] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                totals[name + ".self_s"] += elapsed - frame[1]
                totals[name + ".calls"] += 1
            for counter, measure in COUNTERS.get(name, ()):
                totals[f"{name}.{counter}"] += measure(args, kwargs, result)
            return result

        return traced

    def metrics(self, jobs: int) -> dict[str, dict]:
        """Every metric of METRICS, per job; absent ones have value None."""
        out = {}
        for name, unit, point in METRICS:
            if point in self.absent:
                out[name] = {"value": None, "unit": unit, "absent": True}
                continue
            if name == "cmcheck.link_distinct_ratio":
                links = self.totals["complexes.link.calls"]
                value = self.totals["cmcheck.reisner_check.betti_tables"] / links if links else 0.0
            else:
                value = self.totals[name] / jobs
            out[name] = {"value": value, "unit": unit}
        return out

    def self_seconds(self) -> float:
        """Sum of all self times: the traced time of the phase's jobs."""
        return sum(v for k, v in self.totals.items() if k.endswith(".self_s"))
