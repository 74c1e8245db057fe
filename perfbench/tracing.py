"""Spans for the traced run and the per-layer metrics derived from them.

Spans are recorded from the benchmark's own files: one around each
operation the benchmark calls, and one around each call of a polygauss
function that the library reaches from inside itself.  Those inner calls are
observed by replacing the function at the module attribute through which
its caller looks it up (classify's `build_polytope`, polysum's `kappa`, ...)
for the duration of the traced pass only; `instrument` restores every
attribute on exit.  Nothing under src/ is changed.

A span's self time is its duration minus the time covered by its child
spans.  Calls are single-threaded and nested, so children never overlap and
that time is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from polygauss import classify, geometry, polysum


@dataclass
class Span:
    id: int
    parent: int | None
    op: str | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            **self.attrs,
        }


class Tracer:
    """Keeps spans in memory; the caller writes them out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op: str | None = None

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None):
        """Record one span; yields its attribute dict.  Passing `op` starts
        a new operation, whose id every span nested in it shares."""
        if op is not None:
            self._op = op
        s = Span(
            id=len(self.spans),
            parent=self._stack[-1].id if self._stack else None,
            op=self._op,
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s.attrs
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def patched(self, module, attr: str, name: str, describe=None):
        """Replace module.attr by a wrapper that records a span per call,
        with attributes from describe(args, kwargs, result)."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, kwargs, result))
                return result

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)


def _relation_route(args, kwargs, result) -> dict:
    # classify calls gauss_relation_test(rep, ns, tol, route)
    return {"route": args[3]}


def _scan_counts(args, kwargs, result) -> dict:
    """Grid size of the bounding-box scan and the bytes of the arrays
    scan_lattice holds at its peak, computed from array sizes: the int64
    grid (points x dim) plus the product and slack matrices (2 x points x
    facets)."""
    P = args[0]
    lo, hi = P.bbox()
    grid = 1
    for l, h in zip(lo, hi):
        grid *= max(0, math.floor(h) - math.ceil(l) + 1)
    return {
        "grid_points": grid,
        "lattice_points": len(result[0]),
        "grid_bytes": grid * (P.dim + 2 * P.n_facets) * 8,
    }


def _kappa_terms(args, kwargs, result) -> dict:
    """Terms of kappa(n), computed from n: C(n-1, 2) on each of the four
    faces plus C(n-1, 3) interior ones."""
    n = args[1]
    return {"terms": 4 * math.comb(n - 1, 2) + math.comb(n - 1, 3)}


# (module, attribute, span name, describe): each library function reached
# from inside polygauss, at the attribute its caller looks it up through.
PATCHES = (
    (classify, "gauss_relation_test", "classify.gauss_relation_test", _relation_route),
    (classify, "build_polytope", "geometry.build_polytope", None),
    (classify, "polyhedral_gauss_sum_direct", "polysum.polyhedral_gauss_sum_direct", None),
    (classify, "tetra_gauss_sum_formula", "polysum.tetra_gauss_sum_formula", None),
    (classify, "canonical_form", "weyl.canonical_form", None),
    (geometry, "build_polytope", "geometry.build_polytope", None),
    (polysum, "dilate", "geometry.dilate", None),
    (polysum, "scan_lattice", "geometry.scan_lattice", _scan_counts),
    (polysum, "face_angle", "angles.face_angle", None),
    (polysum, "tetrahedron_angles", "angles.tetrahedron_angles", None),
    (polysum, "kappa", "polysum.kappa", _kappa_terms),
    (polysum, "quad_gauss_closed", "gauss.quad_gauss_closed", None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install every patch for the duration of the block."""
    with contextlib.ExitStack() as stack:
        for module, attr, name, describe in PATCHES:
            stack.enter_context(tracer.patched(module, attr, name, describe))
        yield


def _quantile_ms(durations: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 5) in milliseconds; 0 when the
    layer was not reached."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    cuts = statistics.quantiles(durations, n=20, method="inclusive")
    return cuts[q // 5 - 1] * 1e3


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  A layer the pass does not
    reach reads 0."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def self_total(name: str) -> float:
        return sum(s.duration - child_time[s.id] for s in by_name[name])

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def durations(name: str, **match) -> list[float]:
        return [
            s.duration
            for s in by_name[name]
            if all(s.attrs.get(k) == v for k, v in match.items())
        ]

    searches = by_name["classify.run_theorem2_experiment"]
    relation = "classify.gauss_relation_test"
    grid = attr_sum("geometry.scan_lattice", "grid_points")
    lattice = attr_sum("geometry.scan_lattice", "lattice_points")
    samples = attr_sum("weyl.multitiling_check", "samples_checked")
    tiling_s = total("weyl.multitiling_check")
    return {
        # A search's self time is its enumeration: everything else it does
        # is inside relation-test or canonical-form child spans, apart from
        # assembling the report.
        "classify.enumerate_s": (
            self_total("classify.run_theorem2_experiment") / len(searches)
            if searches
            else 0.0
        ),
        "classify.candidates": max((s.attrs.get("candidates", 0) for s in searches), default=0),
        "classify.orbits": max((s.attrs.get("orbits", 0) for s in searches), default=0),
        "classify.relation_test_direct_ms.p50": _quantile_ms(durations(relation, route="direct"), 50),
        "classify.relation_test_direct_ms.p95": _quantile_ms(durations(relation, route="direct"), 95),
        "classify.relation_test_tetra_ms.p50": _quantile_ms(durations(relation, route="tetra"), 50),
        "classify.relation_test_tetra_ms.p95": _quantile_ms(durations(relation, route="tetra"), 95),
        "geometry.build_polytope_ms.p50": _quantile_ms(durations("geometry.build_polytope"), 50),
        "geometry.build_polytope_ms.p95": _quantile_ms(durations("geometry.build_polytope"), 95),
        "geometry.dilate_s": total("geometry.dilate"),
        "geometry.scan_lattice_s": total("geometry.scan_lattice"),
        "geometry.scan_grid_points": grid,
        "geometry.scan_lattice_points": lattice,
        "geometry.scan_hit_ratio": lattice / grid if grid else 0.0,
        "geometry.scan_grid_bytes": max(
            (s.attrs.get("grid_bytes", 0) for s in by_name["geometry.scan_lattice"]), default=0
        ),
        "angles.face_angle_s": total("angles.face_angle"),
        "angles.tetrahedron_angles_ms.p50": _quantile_ms(durations("angles.tetrahedron_angles"), 50),
        "angles.tetrahedron_angles_calls": len(by_name["angles.tetrahedron_angles"]),
        "polysum.direct_self_s": self_total("polysum.polyhedral_gauss_sum_direct"),
        "polysum.folded_self_s": self_total("polysum.polyhedral_gauss_sum_folded"),
        "polysum.fold_reps": attr_sum("polysum.polyhedral_gauss_sum_folded", "point_count"),
        "polysum.kappa_s": total("polysum.kappa"),
        "polysum.kappa_terms": attr_sum("polysum.kappa", "terms"),
        "gauss.quad_gauss_closed_calls": len(by_name["gauss.quad_gauss_closed"]),
        "weyl.multitiling_check_s": tiling_s,
        "weyl.samples_checked": samples,
        "weyl.sample_us": tiling_s / samples * 1e6 if samples else 0.0,
        "weyl.canonical_form_calls": len(by_name["weyl.canonical_form"]),
    }
