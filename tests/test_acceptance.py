"""Acceptance gate: the ten release criteria, one printed line each.

Run with -s to see the lines; each criterion is a separate test so a
failure pinpoints the broken guarantee.  Criterion 7 is pinned to the
verified outcome of the finite search (two passing orbits, see README),
and the test itself re-derives the evidence for the second orbit.
"""

import cmath
import math
import random
import time

import numpy as np
import pytest

from polygauss.angles import tetrahedron_angles
from polygauss.classify import (
    FUNDAMENTAL_TETRAHEDRON,
    gauss_relation_test,
    run_theorem2_experiment,
)
from polygauss.errors import DegenerateInput, DegenerateTetrahedron
from polygauss.gauss import quad_gauss_closed, quad_gauss_direct
from polygauss.geometry import RationalVector, build_polytope, translate, volume
from polygauss.polysum import (
    polyhedral_gauss_sum_direct,
    tetra_gauss_sum_formula,
)
from polygauss.weyl import canonical_form, multitiling_check, weyl_elements
from tests.conftest import FUND_TET, SECOND_TILE_TET, STD_SIMPLEX, make
from tests.oracles import loop_gauss_sum, vector_tetrahedron_angles, vsub

ORIGIN3 = RationalVector((0, 0, 0))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_classical_gauss_sum():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 501):
        err = abs(quad_gauss_direct(1, n) - quad_gauss_closed(1, n)) / math.sqrt(n)
        worst = max(worst, err)
    dt = time.perf_counter() - t0
    report(
        1,
        worst < 1e-9 and dt < 1.0,
        f"closed vs direct, n <= 500: worst scaled error {worst:.2e}, {dt:.2f}s",
    )


def test_criterion_2_quadratic_gauss_sum():
    t0 = time.perf_counter()
    worst = 0.0
    for b in range(1, 41):
        for a in range(1, 41):
            err = abs(quad_gauss_direct(a, b) - quad_gauss_closed(a, b)) / b
            worst = max(worst, err)
    dt = time.perf_counter() - t0
    report(
        2,
        worst < 1e-9 and dt < 1.0,
        f"closed vs direct, a,b <= 40: worst scaled error {worst:.2e}, {dt:.2f}s",
    )


def test_criterion_3_closed_form_instances():
    t0 = time.perf_counter()
    shapes = [
        make([(0,), (1,)]),
        make([(0, 0), (1, 0), (0, 1), (1, 1)]),
        make([(0, 0), (1, 0), (0, 1)]),
        make([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]),
        make(FUND_TET),
    ]
    worst = 0.0
    for P in shapes:
        for n in range(1, 9):
            worst = max(worst, abs(polyhedral_gauss_sum_direct(P, n).residual))
    dt = time.perf_counter() - t0
    report(
        3,
        worst < 1e-8 and dt < 10.0,
        f"five multi-tilers, n <= 8: worst residual {worst:.2e}, {dt:.2f}s",
    )


def test_criterion_4_negative_control():
    P = make(STD_SIMPLEX)
    residuals = {
        n: polyhedral_gauss_sum_direct(P, n).residual for n in (1, 2, 3, 4)
    }
    failing = {n for n, r in residuals.items() if abs(r) > 0.1}
    # pinned golden values for the failing moduli
    golden_ok = (
        failing == {3, 4}
        and abs(residuals[3]) == pytest.approx(1.2523073536752656, abs=1e-12)
        and cmath.isclose(residuals[4], complex(1 / 6, 5 / 6), abs_tol=1e-12)
    )
    report(
        4,
        bool(failing) and golden_ok,
        "corner simplex misses the closed form at n in {3, 4}; "
        f"|residual| = {abs(residuals[3]):.6f}, {abs(residuals[4]):.6f}",
    )


def _random_lattice_polytope(rng: random.Random):
    d = rng.choice((1, 2, 3))
    while True:
        k = rng.randint(d + 1, d + 3)
        pts = [
            tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)
        ]
        try:
            return build_polytope(pts)
        except DegenerateInput:
            continue


def _random_minimal_tetra(rng: random.Random):
    while True:
        pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
        a, b, c = (
            tuple(x - y for x, y in zip(pts[k], pts[0])) for k in (1, 2, 3)
        )
        det = (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
        if abs(det) == 1:
            return pts


def test_criterion_5_route_cross_validation():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    worst_loop = 0.0
    for _ in range(20):
        P = _random_lattice_polytope(rng)
        for n in range(1, 7):
            gap = abs(polyhedral_gauss_sum_direct(P, n).value - loop_gauss_sum(P, n))
            worst_loop = max(worst_loop, gap)
    worst_formula = 0.0
    for _ in range(50):
        pts = _random_minimal_tetra(rng)
        P = build_polytope(pts)
        for n in range(1, 7):
            a = polyhedral_gauss_sum_direct(P, n)
            b = tetra_gauss_sum_formula(pts, n)
            scaled = abs(a.value - b.value) / max(a.point_count, 1)
            worst_formula = max(worst_formula, scaled)
    dt = time.perf_counter() - t0
    report(
        5,
        worst_loop < 1e-10 and worst_formula < 1e-8 and dt < 60.0,
        f"direct = point-by-point loop (20 shapes) and direct = formula (50 tetrahedra): "
        f"worst error {worst_loop:.2e}, worst scaled error {worst_formula:.2e}, {dt:.1f}s",
    )


def test_criterion_6_multitiling_check():
    t0 = time.perf_counter()
    cube = multitiling_check(
        make([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]),
        sample_count=200,
    )
    tet = multitiling_check(make(FUND_TET), sample_count=200)
    simplex = multitiling_check(make(STD_SIMPLEX), sample_count=200)
    dt = time.perf_counter() - t0
    ok = (
        cube.is_multitiling
        and cube.multiplicity == 48
        and tet.is_multitiling
        and tet.multiplicity == 8
        and not simplex.is_multitiling
        and len(simplex.witnesses) > 0
        and dt < 30.0
    )
    report(
        6,
        ok,
        f"cube m=48, reference tetrahedron m=8, corner simplex rejected with "
        f"{len(simplex.witnesses)} witness(es), {dt:.1f}s",
    )


def test_criterion_7_finite_search_bound_two():
    t0 = time.perf_counter()
    rep = run_theorem2_experiment(2)
    dt = time.perf_counter() - t0
    reference = canonical_form(FUNDAMENTAL_TETRAHEDRON)
    second = canonical_form(SECOND_TILE_TET)
    passers = {o.canonical for o in rep.passing_orbits}

    # the search outcome, pinned: the reference orbit passes, and so does
    # exactly one other orbit; the relations alone do not single out the
    # reference tetrahedron
    structure_ok = (
        rep.candidates_scanned == 22568
        and rep.distinct_orbits == 330
        and passers == {reference, second}
        and rep.theorem_confirmed is False
        and rep.min_rejection_residual is not None
        and rep.min_rejection_residual > 0.2
    )

    # self-verification of the second orbit: it multi-tiles with the same
    # multiplicity 8, so it satisfies the closed form for every n, and both
    # evaluation routes confirm the relations well beyond the search tolerance
    tiling = multitiling_check(make(SECOND_TILE_TET), sample_count=200)
    direct = gauss_relation_test(SECOND_TILE_TET, ns=range(1, 9), tol=1e-10)
    formula = gauss_relation_test(
        SECOND_TILE_TET, ns=range(1, 9), tol=1e-10, route="tetra"
    )
    evidence_ok = (
        tiling.is_multitiling
        and tiling.multiplicity == 8
        and direct.passed
        and formula.passed
    )

    par = run_theorem2_experiment(2, workers=2)
    workers_ok = {o.canonical for o in par.passing_orbits} == passers

    report(
        7,
        structure_ok and evidence_ok and workers_ok and dt < 300.0,
        f"bound 2: {rep.candidates_scanned} candidates, {rep.distinct_orbits} "
        f"orbits, 2 passing (reference + a second multiplicity-8 tiler, "
        f"verified independently), {dt:.1f}s",
    )


def test_criterion_8_intermediate_identities():
    ta = tetrahedron_angles(FUND_TET)
    _, v1, v2, v3 = FUND_TET
    omega_1 = tetrahedron_angles([ORIGIN3, v3, vsub(v3, v2), v1]).solid[0]
    omega_2 = tetrahedron_angles([ORIGIN3, vsub(v3, v2), vsub(v1, v2), v1]).solid[0]
    checks = {
        "sum solid": (sum(ta.solid), 1 / 6),
        "sum dihedral": (sum(ta.dihedral.values()), 7 / 6),
        "w_03": (ta.dihedral[(0, 3)], 1 / 6),
        "n_03": (float(ta.sq_lengths[(0, 3)]), 3.0),
        "Omega_1": (omega_1, 1 / 24),
        "Omega_2": (omega_2, 1 / 8),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    report(
        8,
        worst < 1e-9,
        f"six identities on the passing orbit: worst deviation {worst:.2e}",
    )


def test_criterion_9_angle_identity_suite():
    rng = random.Random(99)
    worst = 0.0
    checked = 0
    while checked < 100:
        pts = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(4)]
        try:
            ta = tetrahedron_angles(pts)
        except DegenerateTetrahedron:
            continue
        checked += 1
        ref = vector_tetrahedron_angles(pts)
        worst = max(worst, *(abs(a - b) for a, b in zip(ta.solid, ref.solid)))
        worst = max(worst, *(abs(ta.external[k] - ref.external[k]) for k in ref.external))
    octant = tetrahedron_angles([ORIGIN3, (1, 0, 0), (0, 1, 0), (0, 0, 1)]).solid[0]
    report(
        9,
        worst < 1e-12 and octant == 0.125,
        f"Gram-relation solid and external angles against the arctan cone "
        f"formula on 100 tetrahedra: worst {worst:.2e}; "
        f"octant = {octant}",
    )


def test_criterion_10_invariance_suite():
    rng = random.Random(7)
    elems = weyl_elements(3)
    worst = 0.0
    for pts in (FUND_TET, STD_SIMPLEX):
        base = {n: polyhedral_gauss_sum_direct(make(pts), n).value for n in (1, 2, 3)}
        for _ in range(20):
            w = rng.choice(elems)
            lam = tuple(rng.randint(-3, 3) for _ in range(3))
            moved = make((np.array(pts) @ w.T + lam).tolist())
            for n, want in base.items():
                got = polyhedral_gauss_sum_direct(moved, n).value
                worst = max(worst, abs(got - want))
    # 2d shape under its own group
    tri = [(0, 0), (2, 1), (1, 3)]
    elems2 = weyl_elements(2)
    base2 = {n: polyhedral_gauss_sum_direct(make(tri), n).value for n in (1, 2, 3)}
    for _ in range(20):
        w = rng.choice(elems2)
        lam = tuple(rng.randint(-3, 3) for _ in range(2))
        moved = make((np.array(tri) @ w.T + lam).tolist())
        for n, want in base2.items():
            worst = max(worst, abs(polyhedral_gauss_sum_direct(moved, n).value - want))
    report(
        10,
        worst < 1e-9,
        f"60 random symmetry moves across three shapes: worst drift {worst:.2e}",
    )
