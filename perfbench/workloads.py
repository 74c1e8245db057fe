"""The benchmark's workloads as lists of operations, each with the check that
decides whether its output is correct.

An operation is one call a user of polygauss would make: a full search, one
G_P(n) evaluation, one multi-tiling check.  Every operation that takes a
polytope parses it afresh from the fixture's JSON, because the scan, dilate
and angle caches live on the Polytope object: reusing one would time cache
hits instead of the work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from polygauss import classify, geometry, polysum, weyl

FIXTURES = (
    "fund_tet",
    "second_tile_tet",
    "std_simplex",
    "triangle_2d",
    "unit_cube_1d",
    "unit_cube_2d",
    "unit_cube_3d",
)

# Worker count of the parallel search, sized for a 2-CPU machine; the run's
# record flags a pool larger than the CPUs available to it.
POOL_WORKERS = 2

SUM_TOL = 1e-8


@dataclass(frozen=True)
class Op:
    """One timed operation.

    metric: the named end-to-end total its wall time adds to.
    label: unique within a pass; traced and untraced outputs are matched by it.
    span: the public function the operation calls, named module.function.
    run: performs the call and returns a comparable summary of its output.
    check: (summary, summaries of earlier operations of the pass by label)
        -> list of problems; empty means correct.
    traced: whether the operation also runs in the traced pass, which is
        single-process because spans recorded in forked workers are lost.
    """

    metric: str
    label: str
    span: str
    run: Callable[[], dict]
    check: Callable[[dict, dict], list[str]]
    traced: bool = True


def setup(root: Path) -> dict[str, dict]:
    """What a run needs before its first operation: the fixtures parsed (and
    built once, so a malformed one fails here) and the 3-d signed-permutation
    group built.  Returns each fixture's JSON object by name."""
    fixtures = {}
    for name in FIXTURES:
        path = root / "data" / "polytopes" / f"{name}.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        geometry.polytope_from_dict(data)
        fixtures[name] = data
    weyl.weyl_elements(3)
    return fixtures


# --- search-b2 ---------------------------------------------------------------


@dataclass(frozen=True)
class SearchExpect:
    candidates: int
    orbits: int
    passers: frozenset


# The pinned outcome of the paper's search: the reference tetrahedron T and
# the second multi-tiler T', as canonical forms.
PASSERS = frozenset(
    {
        ((-1, -1, -1), (-1, -1, 0), (-1, 0, 0), (0, 0, 0)),
        ((-2, -1, -1), (-1, -1, -1), (-1, -1, 0), (0, 0, 0)),
    }
)
SEARCH_B1 = SearchExpect(candidates=1160, orbits=21, passers=PASSERS)
SEARCH_B2 = SearchExpect(candidates=22568, orbits=330, passers=PASSERS)


def _search(bound: int, route: str, workers: int) -> dict:
    r = classify.run_theorem2_experiment(bound, route=route, workers=workers)
    return {
        "candidates": r.candidates_scanned,
        "orbits": r.distinct_orbits,
        "passers": sorted(o.canonical for o in r.passing_orbits),
        "tolerance": r.tolerance,
        "min_rejection_residual": r.min_rejection_residual,
        "residuals": [
            (o.canonical, sorted(o.residuals.items())) for o in r.orbit_outcomes
        ],
    }


def _search_check(expect: SearchExpect) -> Callable[[dict, dict], list[str]]:
    def check(out: dict, earlier: dict) -> list[str]:
        problems = []
        if out["candidates"] != expect.candidates:
            problems.append(f"{out['candidates']} candidates, expected {expect.candidates}")
        if out["orbits"] != expect.orbits:
            problems.append(f"{out['orbits']} orbits, expected {expect.orbits}")
        if set(out["passers"]) != expect.passers:
            problems.append(f"passing orbits {out['passers']} differ from the pinned pair")
        margin = out["min_rejection_residual"]
        if margin is None or not margin > out["tolerance"]:
            problems.append(
                f"closest rejected orbit at {margin}, not above tolerance {out['tolerance']}"
            )
        return problems

    return check


def search_ops(bound: int, expect: SearchExpect) -> list[Op]:
    """The search at coordinate bound `bound` on the direct route, the tetra
    route, and the direct route with a worker pool."""
    check = _search_check(expect)
    runs = (
        ("search_direct_s", "direct", 1),
        ("search_tetra_s", "tetra", 1),
        ("search_direct_2w_s", "direct", POOL_WORKERS),
    )
    return [
        Op(
            metric=metric,
            label=f"search B={bound} {route} workers={workers}",
            span="classify.run_theorem2_experiment",
            run=lambda r=route, w=workers: _search(bound, r, w),
            check=check,
            traced=workers == 1,
        )
        for metric, route, workers in runs
    ]


# --- sum-large-n ---------------------------------------------------------------

SUM_CASES = (
    ("direct", "fund_tet", 64),
    ("direct", "fund_tet", 128),
    ("direct", "fund_tet", 256),
    ("direct", "unit_cube_3d", 128),
    ("tetra", "fund_tet", 64),
    ("tetra", "fund_tet", 128),
    ("tetra", "second_tile_tet", 64),
    ("tetra", "second_tile_tet", 128),
    ("folded", "fund_tet", 64),
    ("folded", "fund_tet", 128),
)

# Lattice points of the dilate nP: C(n+3, 3) for a volume-1/6 tetrahedron,
# (n+1)^3 for the unit cube.  The folded route reports orbit representatives
# instead, so its count is not checked against these.
POINT_COUNTS = {
    "fund_tet": lambda n: math.comb(n + 3, 3),
    "second_tile_tet": lambda n: math.comb(n + 3, 3),
    "unit_cube_3d": lambda n: (n + 1) ** 3,
}

_SUM_FUNCTIONS = {
    "direct": "polyhedral_gauss_sum_direct",
    "folded": "polyhedral_gauss_sum_folded",
    "tetra": "tetra_gauss_sum_formula",
}


def _sum_label(route: str, name: str, n: int) -> str:
    return f"sum {name} n={n} {route}"


def _sum(data: dict, route: str, n: int) -> dict:
    P = geometry.polytope_from_dict(data)
    if route == "direct":
        r = polysum.polyhedral_gauss_sum_direct(P, n)
    elif route == "folded":
        r = polysum.polyhedral_gauss_sum_folded(P, n)
    else:
        r = polysum.tetra_gauss_sum_formula([v.coords for v in P.vertices], n)
    return {"value": r.value, "residual": r.residual, "point_count": r.point_count}


def _sum_check(route: str, name: str, n: int) -> Callable[[dict, dict], list[str]]:
    def check(out: dict, earlier: dict) -> list[str]:
        problems = []
        if not abs(out["residual"]) < SUM_TOL:
            problems.append(f"|residual| {abs(out['residual']):.3g} not below {SUM_TOL}")
        if route != "folded" and out["point_count"] != POINT_COUNTS[name](n):
            problems.append(
                f"{out['point_count']} points, expected {POINT_COUNTS[name](n)}"
            )
        for other in _SUM_FUNCTIONS:
            prev = earlier.get(_sum_label(other, name, n))
            if other != route and prev is not None:
                gap = abs(prev["value"] - out["value"])
                if not gap <= SUM_TOL:
                    problems.append(f"differs from the {other} route by {gap:.3g}")
        return problems

    return check


def sum_ops(cases, fixtures: dict[str, dict]) -> list[Op]:
    """One G_P(n) evaluation per (route, fixture, n) case."""
    return [
        Op(
            metric=f"sum_{route}_s",
            label=_sum_label(route, name, n),
            span=f"polysum.{_SUM_FUNCTIONS[route]}",
            run=lambda d=fixtures[name], r=route, k=n: _sum(d, r, k),
            check=_sum_check(route, name, n),
        )
        for route, name, n in cases
    ]


# --- tiling-fixtures -------------------------------------------------------------

# Multiplicity of every bundled fixture under the signed-permutation group;
# None marks the one that does not multi-tile.
TILING_EXPECT = {
    "fund_tet": 8,
    "second_tile_tet": 8,
    "std_simplex": None,
    "triangle_2d": 4,
    "unit_cube_1d": 2,
    "unit_cube_2d": 8,
    "unit_cube_3d": 48,
}
TILING_SAMPLES = 200


def _tiling(data: dict, samples: int, seed: int) -> dict:
    P = geometry.polytope_from_dict(data)
    return weyl.multitiling_check(P, sample_count=samples, seed=seed).to_dict()


def _tiling_check(m: int | None, samples: int) -> Callable[[dict, dict], list[str]]:
    def check(out: dict, earlier: dict) -> list[str]:
        if m is None:
            return ["accepted, expected a rejection"] if out["is_multitiling"] else []
        if not out["is_multitiling"] or out["multiplicity"] != m:
            return [f"verdict {out['is_multitiling']} m={out['multiplicity']}, expected m={m}"]
        if out["samples_checked"] != samples:
            return [f"checked {out['samples_checked']} of {samples} samples"]
        return []

    return check


def tiling_ops(fixtures: dict[str, dict], samples: int, seed: int, expect: dict) -> list[Op]:
    """multitiling_check on every fixture in `expect`, each with its own
    sample seed drawn from the workload seed."""
    rng = random.Random(seed)
    ops = []
    for name, m in expect.items():
        sample_seed = rng.randrange(2**31)
        ops.append(
            Op(
                metric="tiling_s",
                label=f"tiling {name} seed={sample_seed}",
                span="weyl.multitiling_check",
                run=lambda d=fixtures[name], s=sample_seed: _tiling(d, samples, s),
                check=_tiling_check(m, samples),
            )
        )
    return ops


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS: dict[str, Callable[[dict, int], list[Op]]] = {
    "search-b2": lambda fixtures, seed: search_ops(2, SEARCH_B2),
    "sum-large-n": lambda fixtures, seed: sum_ops(SUM_CASES, fixtures),
    "tiling-fixtures": lambda fixtures, seed: tiling_ops(
        fixtures, TILING_SAMPLES, seed, TILING_EXPECT
    ),
}
