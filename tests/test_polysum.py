import cmath
import contextlib
import gc
import itertools
import json
import math
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from polygauss import geometry, polysum
from polygauss.classify import DEFAULT_NS, _enumerate, gauss_relation_test
from polygauss.errors import (
    DegenerateInput,
    DegenerateTetrahedron,
    MalformedInput,
    UnsupportedDimension,
    VolumeNotMinimal,
)
from polygauss.gauss import quad_gauss_closed
from polygauss.geometry import (
    RationalVector,
    build_polytope,
    classify_point,
    dilate,
    translate,
    volume,
)
from polygauss.polysum import (
    kappa,
    polyhedral_gauss_sum_direct,
    polyhedral_gauss_sums_direct,
    tetra_gauss_sum_formula,
)
from polygauss.weyl import weyl_elements
from tests.conftest import FUND_TET, SECOND_TILE_TET, STD_SIMPLEX, make
from tests.oracles import compositions, grid_scan_lattice, loop_gauss_sum, loop_kappa, unfolded_counts

SQ3 = math.sqrt(3)


def test_interval_recovers_classical_sum(unit_interval):
    # [0,1] multi-tiles with multiplicity 2, volume 1: G_P(n) = G(n)
    for n in range(1, 13):
        rep = polyhedral_gauss_sum_direct(unit_interval, n)
        assert abs(rep.value - quad_gauss_closed(1, n)) < 1e-12
        assert abs(rep.residual) < 1e-12
        assert rep.point_count == n + 1


def test_reference_tetrahedron_closed_form(fund_tet):
    # vol 1/6 and multiplicity-8 tiling: G_P(n) = G(n)^3 / 6
    for n, want in [
        (1, 1 / 6),
        (2, 0),
        (3, -1j * SQ3 / 2),
        (4, -8 / 3 + 8j / 3),
        (5, 5 * math.sqrt(5) / 6),
    ]:
        rep = polyhedral_gauss_sum_direct(fund_tet, n)
        assert cmath.isclose(rep.value, want, abs_tol=1e-12)
        assert abs(rep.residual) < 1e-12


def test_unit_cube_closed_form(unit_cube, unit_square):
    for P, d in ((unit_cube, 3), (unit_square, 2)):
        for n in range(1, 7):
            rep = polyhedral_gauss_sum_direct(P, n)
            assert abs(rep.value - quad_gauss_closed(1, n) ** d) < 1e-12


def test_point_counts(fund_tet, unit_cube):
    assert polyhedral_gauss_sum_direct(fund_tet, 1).point_count == 4
    assert polyhedral_gauss_sum_direct(fund_tet, 2).point_count == 10
    assert polyhedral_gauss_sum_direct(unit_cube, 1).point_count == 8
    assert polyhedral_gauss_sum_direct(unit_cube, 2).point_count == 27


def test_standard_simplex_fails_closed_form(std_simplex):
    # volume 1/6 but not a multi-tiler; pinned values of the direct sum
    pins = {
        1: (0.20613008597704457, 0.03946341931037792),
        2: (-0.08773982804591085, 0.08773982804591085),
        3: (-1.25 - 0.7900404837730006j, 1.2523073536752656),
        4: (-2.5 + 3.5j, 0.8498365855987982),
    }
    for n, (value, res) in pins.items():
        rep = polyhedral_gauss_sum_direct(std_simplex, n)
        assert cmath.isclose(rep.value, value, abs_tol=1e-12)
        assert abs(rep.residual) == pytest.approx(res, abs=1e-12)
    # the n=4 residual is exactly 1/6 + 5i/6
    r4 = polyhedral_gauss_sum_direct(std_simplex, 4).residual
    assert cmath.isclose(r4, complex(1 / 6, 5 / 6), abs_tol=1e-12)
    failing = {
        n
        for n in range(1, 5)
        if abs(polyhedral_gauss_sum_direct(std_simplex, n).residual) > 0.1
    }
    assert failing == {3, 4}


def test_formula_route_matches_direct(second_tile_tet):
    for pts in (FUND_TET, STD_SIMPLEX, SECOND_TILE_TET):
        P = make(pts)
        for n in range(1, 9):
            a = polyhedral_gauss_sum_direct(P, n)
            b = tetra_gauss_sum_formula(pts, n)
            assert abs(a.value - b.value) < 1e-10, (pts, n)


def test_kappa_vanishes_for_small_dilations():
    # no positive compositions of 1 or 2 into 3 or 4 parts
    for pts in (FUND_TET, STD_SIMPLEX, SECOND_TILE_TET):
        assert kappa(pts, 1) == 0
        assert kappa(pts, 2) == 0


def test_kappa_pinned_values():
    assert cmath.isclose(
        kappa(FUND_TET, 3), complex(0.5, -SQ3 / 2), abs_tol=1e-12
    )
    assert cmath.isclose(
        kappa(SECOND_TILE_TET, 3), complex(-0.25, -3 * SQ3 / 4), abs_tol=1e-12
    )
    assert cmath.isclose(kappa(FUND_TET, 4), complex(-3, 2), abs_tol=1e-12)
    # all squared edge lengths even except the three at one vertex
    parity_tet = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 2, 1))
    assert cmath.isclose(kappa(parity_tet, 4), complex(-3, 2), abs_tol=1e-12)


def test_report_to_dict(fund_tet):
    rep = polyhedral_gauss_sum_direct(fund_tet, 3)
    d = rep.to_dict()
    assert set(d) == {
        "n",
        "re",
        "im",
        "route",
        "point_count",
        "residual_re",
        "residual_im",
    }
    assert d["n"] == 3
    assert d["re"] == rep.value.real and d["im"] == rep.value.imag
    assert d["point_count"] == rep.point_count


def test_closed_form_value(fund_tet, unit_cube):
    # the residual is taken against vol(P) G(n)^d
    rep = polyhedral_gauss_sum_direct(fund_tet, 3)
    assert rep.value - rep.residual == pytest.approx((1j * SQ3) ** 3 / 6, abs=1e-12)
    rep = polyhedral_gauss_sum_direct(unit_cube, 4)
    assert rep.value - rep.residual == (2 + 2j) ** 3


def test_rejects_non_lattice_polytope():
    P = build_polytope([("0", "0"), ("1/2", "0"), ("0", "1/2")])
    with pytest.raises(MalformedInput):
        polyhedral_gauss_sum_direct(P, 1)


def test_rejects_bad_dilation(fund_tet):
    for n in (0, -2, 2.5, 2.0, True):
        for call in (
            lambda: dilate(fund_tet, n),
            lambda: polyhedral_gauss_sum_direct(fund_tet, n),
            lambda: tetra_gauss_sum_formula(FUND_TET, n),
            lambda: kappa(FUND_TET, n),
        ):
            with pytest.raises(MalformedInput):
                call()


def test_dilation_messages_and_numpy_integers(fund_tet):
    below_one = [
        ("dilation factor must be >= 1, got 0", lambda: dilate(fund_tet, 0)),
        ("dilation factor must be >= 1, got 0", lambda: polyhedral_gauss_sum_direct(fund_tet, 0)),
        ("modulus must be >= 1, got 0", lambda: kappa(FUND_TET, 0)),
    ]
    for message, call in below_one:
        with pytest.raises(MalformedInput) as exc:
            call()
        assert str(exc.value) == message
    for n in (np.int64(3), np.int32(3)):
        assert dilate(fund_tet, n).vertices == dilate(fund_tet, 3).vertices
        reports = [polyhedral_gauss_sum_direct(fund_tet, n), tetra_gauss_sum_formula(FUND_TET, n)]
        assert reports == [polyhedral_gauss_sum_direct(fund_tet, 3), tetra_gauss_sum_formula(FUND_TET, 3)]
        # every route reports a built-in n, so each report serialises
        for report in reports:
            assert type(report.n) is int
            assert json.loads(json.dumps(report.to_dict()))["n"] == 3
    # a numpy factor leaves built-in ints in the dilate, also where int64
    # would wrap: 2^61 away, the dilate by 4 has bounds past 2^63
    far = translate(fund_tet, RationalVector((2**61, 0, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for P, n in ((fund_tet, 3), (far, 4)):
            want = dilate(P, n)
            for m in (np.int64(n), np.int32(n)):
                Q = dilate(P, m)
                data = [Q.denominator, *Q.facet_bounds, *itertools.chain(*Q.numerators)]
                assert all(type(x) is int for x in data)
                assert (Q.numerators, Q.denominator) == (want.numerators, want.denominator)
                assert Q.facet_bounds == want.facet_bounds
                assert [classify_point(Q, v) for v in Q.vertices] == [0, 1, 2, 3]
    assert max(Q.facet_bounds) == 2**63 + 4


def test_formula_route_input_errors():
    with pytest.raises(DegenerateTetrahedron):
        tetra_gauss_sum_formula([(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0)], 2)
    with pytest.raises(DegenerateTetrahedron):
        tetra_gauss_sum_formula([(0, 0, 0), (1, 0, 0), (0, 1, 0)], 2)
    with pytest.raises(VolumeNotMinimal):
        tetra_gauss_sum_formula([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)], 2)
    with pytest.raises(MalformedInput):
        tetra_gauss_sum_formula(
            [("0", "0", "0"), ("1/2", "0", "0"), ("0", "1", "0"), ("0", "0", "1")], 2
        )


def test_tetra_route_checks_the_tetrahedron_once(monkeypatch):
    # kappa takes the vertices the formula checked; called alone it checks
    calls = []

    def det(rows):
        calls.append(rows)
        return geometry.det(rows)

    monkeypatch.setattr(polysum, "det", det)
    tetra_gauss_sum_formula(FUND_TET, 5)
    assert len(calls) == 1
    kappa(FUND_TET, 5)
    assert len(calls) == 2
    with pytest.raises(VolumeNotMinimal):
        kappa([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)], 5)


def test_invariance_under_lattice_symmetries(fund_tet):
    # the sum is unchanged by signed permutations and integer translations
    w = weyl_elements(3)[17]
    moved = make((np.array(FUND_TET) @ w.T).tolist())
    shifted = translate(fund_tet, RationalVector((2, -3, 1)))
    for n in (1, 2, 3, 4):
        base = polyhedral_gauss_sum_direct(fund_tet, n).value
        assert abs(polyhedral_gauss_sum_direct(moved, n).value - base) < 1e-11
        assert abs(polyhedral_gauss_sum_direct(shifted, n).value - base) < 1e-11


def test_direct_route_far_from_the_origin(unit_cube):
    # the coordinates of 5P, near 1e10, overflow int64 when squared
    far = translate(unit_cube, RationalVector((2 * 10**9,) * 3))
    base = polyhedral_gauss_sum_direct(unit_cube, 5).value
    assert polyhedral_gauss_sum_direct(far, 5).value == base


@st.composite
def lattice_polytopes(draw):
    d = draw(st.integers(1, 3))
    coord = st.integers(-3, 3)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 4))
    try:
        return build_polytope(pts)
    except DegenerateInput:
        assume(False)


@seed(20150417)
@settings(max_examples=100, derandomize=False)
@given(P=lattice_polytopes(), n=st.integers(1, 12))
def test_direct_equals_loop_oracle_property(P, n):
    assert abs(polyhedral_gauss_sum_direct(P, n).value - loop_gauss_sum(P, n)) < 1e-10


PARITY_TET = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 2, 1))
# minimal, with |x|^2 of the vertex combinations past int64 unless reduced mod n
FAR_TETS = [
    ((0, 0, 0), (1, 0, 0), (0, 1, 0), (K, K, 1)) for K in (3_100_000_000, 2**64 + 5)
]


@pytest.mark.parametrize(
    "pts", [FUND_TET, SECOND_TILE_TET, STD_SIMPLEX, PARITY_TET] + FAR_TETS
)
def test_kappa_equals_loop_oracle(pts):
    for n in range(1, 25):
        assert kappa(pts, n) == loop_kappa(pts, n), n


def counted_sum(P, n, by_lines=None):
    """polysum._counted_sums for n alone, on the path its size rule picks,
    or forced onto the line path (True) or the point path (False)."""
    with pytest.MonkeyPatch.context() as mp:
        if by_lines is not None:
            mp.setattr(polysum, "_LINE_PATH_POINTS", 0 if by_lines else geometry.POINT_BUDGET)
        return polysum._counted_sums(P, n)


@pytest.mark.parametrize(
    "name", ["fund_tet", "std_simplex", "unit_cube", "unit_triangle", "unit_interval"]
)
def test_direct_counts_equal_unfolding_oracle(request, name):
    # the direct route's (face, residue) counts equal, as integer arrays,
    # those of unfolding every wedge representative over the grid scan:
    # an independent check of point location and of the residue table
    P = request.getfixturevalue(name)
    for n in (1, 2, 3, 4, 7, 10):
        want = unfolded_counts(P, n)
        for by_lines in (None, False, True):  # the chosen path, then each one
            counts = counted_sum(P, n, by_lines)[1]
            assert counts.dtype == np.int64 and np.array_equal(counts, want), (n, by_lines)


def test_counts_do_not_depend_on_the_chunk_size(monkeypatch, fund_tet, unit_cube):
    # a box whose lines, of 40 n + 1 points, outrun the patched chunk
    box = make([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 40)])
    cases = [(P, n) for P in (fund_tet, unit_cube) for n in (9, 10)] + [(box, 3)]
    want = [counted_sum(P, n)[1] for P, n in cases]
    monkeypatch.setattr(polysum, "_COUNT_CHUNK", 7)
    monkeypatch.setattr(geometry, "_SCAN_CHUNK", 7)
    for (P, n), counts in zip(cases, want):
        for by_lines in (False, True):
            assert np.array_equal(counted_sum(P, n, by_lines)[1], counts), (n, by_lines)


def same_counts_on_both_paths(P, n):
    """The point and line paths give equal int64 tables, values and point
    counts; returns the table."""
    (va, ca, pa), (vb, cb, pb) = (counted_sum(P, n, by_lines) for by_lines in (False, True))
    assert ca.dtype == cb.dtype == np.int64 and np.array_equal(ca, cb), n
    assert va == vb and pa == pb, n
    return ca


@pytest.mark.parametrize(
    "name",
    ["fund_tet", "second_tile_tet", "std_simplex", "unit_cube", "unit_square", "unit_triangle", "unit_interval"],
)
def test_line_path_equals_point_path(request, name):
    # every fixture, near the origin and far from it, where |x|^2 itself
    # overflows int64; the cube's lines along its facets count their
    # interior points on the facet
    P = request.getfixturevalue(name)
    far = translate(P, RationalVector((3 * 10**9 + 7,) * P.dim))
    for n in (1, 2, 3, 4, 5, 7, 12, 33):
        assert np.array_equal(same_counts_on_both_paths(far, n), same_counts_on_both_paths(P, n))
    for n in (64, 100) + ((300,) if P.dim < 3 else ()):
        same_counts_on_both_paths(P, n)


def line_shapes(P, n):
    """Which kinds of line the line path meets on nP."""
    _, lower, counts, _ = geometry.lattice_lines(dilate(P, n))
    inner = counts - 2
    shapes = {f"{k} points" for k in set(counts.tolist()) & {1, 2, 3}}
    if (inner >= n).any():
        shapes.add("whole periods")
    if ((lower + 1) % n + inner % n > n)[inner > 0].any():
        shapes.add("wrap-around")
    return shapes


def test_line_path_on_every_line_shape(second_tile_tet):
    # B = 2 orbits of last-axis extent 2 or more give lines of 1, 2 and 3
    # points and interiors that wrap around mod n.  A unimodular tetrahedron
    # has no chord longer than 1 along a lattice direction, so its lines
    # hold at most n + 1 points; whole periods need longer polytopes.
    reps = [rep for _, rep in _enumerate(2)[1] if np.ptp(np.array(rep)[:, 2]) >= 2]
    long = [
        make([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 5)]),
        make([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (-3, 40)]),
        make([(0, 0), (1, 0), (2, 7)]),
    ]
    shapes = set()
    for P in [second_tile_tet] + [make(rep) for rep in reps[::10]]:
        for n in (1, 2, 3, 4, 9, 17):
            same_counts_on_both_paths(P, n)
            shapes |= line_shapes(P, n)
    assert shapes == {"1 points", "2 points", "3 points", "wrap-around"}
    for P in long:
        for n in (1, 2, 3, 4, 9, 17):
            same_counts_on_both_paths(P, n)
            shapes |= line_shapes(P, n)
    assert "whole periods" in shapes


@st.composite
def hulls(draw):
    """The hull of 4 to 8 integer points in [-3, 3]^d, d = 2 or 3 (simplices,
    polygons and non-simplicial polytopes), and a dilation n <= 24 whose
    bounding box holds at most 2^18 points, for the grid scan's sake."""
    d = draw(st.integers(2, 3))
    coord = st.integers(-3, 3)
    try:
        P = build_polytope(draw(st.lists(st.tuples(*[coord] * d), min_size=4, max_size=8)))
    except DegenerateInput:
        assume(False)
    extents = [int(hi - lo) for lo, hi in zip(*P.bbox())]
    top = next(n for n in range(24, 0, -1) if math.prod(e * n + 1 for e in extents) <= 1 << 18)
    return P, draw(st.integers(1, top))


@seed(20151016)
@settings(max_examples=100, deadline=None)
@given(case=hulls())
def test_both_paths_equal_the_grid_scan_property(case):
    # C[f, r] on either path is the bincount of the grid scan's points of nP
    P, n = case
    pts, fids = grid_scan_lattice(dilate(P, n))
    x = pts % n
    want = np.bincount(fids * n + (x * x).sum(axis=1) % n, minlength=len(P.faces) * n)
    for by_lines in (False, True):
        _, counts, points = counted_sum(P, n, by_lines)
        assert np.array_equal(counts.ravel(), want) and points == len(pts), by_lines


def test_line_path_in_runs_and_row_chunks(monkeypatch, fund_tet, unit_cube, second_tile_tet):
    # with the chunk patched to 7, the lines are cut into fixed runs of
    # max(7, faces * n) // 3 that cover every line once, each run counts its
    # lines' ends and then their interiors in one pass, each end once, and
    # every chunk of rows holds one row
    box = make([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 40)])
    cases = [(fund_tet, 30), (unit_cube, 20), (second_tile_tet, 30), (box, 3)]
    want = [counted_sum(P, n, by_lines=False)[1] for P, n in cases]
    monkeypatch.setattr(polysum, "_COUNT_CHUNK", 7)
    monkeypatch.setattr(geometry, "_SCAN_CHUNK", 7)
    sums, rows, lines, several = [], [], [], []
    count_interiors = polysum._count_interiors

    def interiors(table, key, lower, counts, n):
        rows[-1].append(len(set(key.tolist())))
        lines[-1].append(counts)  # this run's lines of three or more points
        sums[-1].append(int(table.sum()))  # ends counted so far, interiors of earlier runs
        count_interiors(table, key, lower, counts, n)
        sums[-1].append(int(table.sum()))

    monkeypatch.setattr(polysum, "_count_interiors", interiors)
    for (P, n), counts in zip(cases, want):
        sums.append([])
        rows.append([])
        lines.append([])
        assert np.array_equal(counted_sum(P, n, by_lines=True)[1], counts)
        k = geometry.lattice_lines(dilate(P, n))[2]
        step = max(7, len(P.faces) * n) // 3
        runs = [(s, min(s + step, len(k))) for s in range(0, len(k), step)]
        several.append(len(runs) > 1)
        assert len(sums[-1]) == 2 * len(runs)  # one pass per run
        for (s, e), inner in zip(runs, lines[-1]):  # each run's interiors are its lines'
            assert inner.tolist() == (k[s:e][k[s:e] > 2] - 2).tolist()
        ends, inner = np.diff([0] + sums[-1]).reshape(-1, 2).T  # counted by each run
        assert ends.tolist() == [e - s + np.count_nonzero(k[s:e] > 1) for s, e in runs]
        assert sum(ends) == len(k) + np.count_nonzero(k > 1)  # first and last ends
        assert sum(inner) == np.maximum(k - 2, 0).sum()
        assert max(rows[-1]) > 1
    assert several == [True, True, True, False]
    assert [len(r) > 1 for r in rows] == [True, True, True, False]


def test_path_choice(monkeypatch, fund_tet, unit_cube, unit_interval):
    # one size rule: dilates of at most 2^13 points, such as the search's,
    # take the point path (one scan), larger ones the line path (the ends
    # and interiors of its lines counted without a scan)
    assert polysum._LINE_PATH_POINTS == 1 << 13
    chosen = []
    for name, by_lines in (("scan_lattice", False), ("_table_by_lines", True)):
        original = getattr(polysum, name)

        def spy(*args, by_lines=by_lines, original=original):
            chosen.append(by_lines)
            return original(*args)

        monkeypatch.setattr(polysum, name, spy)
    for _, rep in _enumerate(1)[1]:
        for n in (1, 2, 3, 4):
            polyhedral_gauss_sum_direct(make(rep), n)
    assert chosen == [False] * 21 * 4
    # the direct relation test counts its n from compositions: no path runs
    chosen.clear()
    for _, rep in _enumerate(1)[1]:
        gauss_relation_test(rep)
    assert chosen == []
    for P, n in ((fund_tet, 64), (fund_tet, 128), (fund_tet, 256), (unit_cube, 128)):
        chosen.clear()
        counted_sum(P, n)
        assert chosen and all(chosen), n
    for n, by_lines in ((8191, False), (8192, True)):  # n + 1 points
        chosen.clear()
        assert counted_sum(unit_interval, n)[2] == n + 1
        assert chosen == [by_lines], n


@pytest.mark.parametrize("pts", [FUND_TET, PARITY_TET] + FAR_TETS)
def test_kappa_in_runs_equals_loop_oracle(monkeypatch, pts):
    # every n up to 40 and two past it, with the triangle built afresh on
    # every call and the scan paths' chunk patched small: kappa depends on
    # neither the cache nor the chunk
    monkeypatch.setattr(polysum, "_COUNT_CHUNK", 7)
    monkeypatch.setattr(polysum, "_triangle", polysum._triangle.__wrapped__)
    for n in [*range(1, 41), 64, 100]:
        assert kappa(pts, n) == loop_kappa(pts, n), n


@st.composite
def unimodular_tetrahedra(draw):
    """The vertices t, t + m_0, t + m_1, t + m_2 in a random order, for a
    random translate t and the rows m_i of a random unimodular matrix, a
    product of elementary row operations and a sign."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    steps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3))
    for i, j, k in draw(st.lists(steps, max_size=8)):
        if i != j:
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    if draw(st.booleans()):
        m[0] = [-x for x in m[0]]
    t = draw(st.tuples(*[st.integers(-(10**12), 10**12)] * 3))
    return draw(st.permutations([t] + [tuple(map(sum, zip(t, row))) for row in m]))


@seed(20151118)
@settings(max_examples=40, deadline=None)
@given(pts=unimodular_tetrahedra(), n=st.integers(1, 48))
def test_kappa_equals_loop_oracle_property(pts, n):
    assert kappa(pts, n) == loop_kappa(pts, n)


def test_kappa_prefixes_are_the_compositions():
    # the triangle holds each (a, b) with a, b >= 1, a + b <= n - 1 once,
    # ordered by a + b, with its monomials mod n; the prefix kappa passes
    # over at third part c holds the compositions of n into four parts with
    # that c, and the passes cover all C(n - 1, 3) of them, each once
    for n in (3, 4, 5, 7, 12, 33):
        mono = polysum._triangle(n)[0]
        a, b = mono[3], mono[4]  # below n, so their own residues
        assert mono.shape == (6, math.comb(n - 1, 2))
        assert np.array_equal(mono[:3], np.stack([a * a, a * b, b * b]) % n) and (mono[5] == 1).all()
        assert sorted(np.column_stack([a, b]).tolist()) == compositions(n, 3)[:, :2].tolist()
        assert (np.diff(a + b) >= 0).all()
        terms = [
            [x, y, c]
            for c in range(1, n - 2)
            for x, y in zip(a[: math.comb(n - 1 - c, 2)].tolist(), b.tolist())
        ]
        assert len(terms) == math.comb(n - 1, 3)
        assert sorted(terms) == compositions(n, 4)[:, :3].tolist(), n


def test_compositions():
    for n in range(1, 9):
        for parts in (1, 3, 4):
            rows = compositions(n, parts)
            assert rows.shape == (math.comb(n - 1, parts - 1), parts)
            assert (rows >= 1).all() and (rows.sum(axis=1) == n).all()
            assert rows.tolist() == sorted(rows.tolist())
            assert len({tuple(r) for r in rows.tolist()}) == len(rows)


def test_kappa_refuses_requests_over_the_budget():
    with pytest.raises(MalformedInput, match="kappa terms exceed the budget"):
        kappa(FUND_TET, 1000)


@pytest.mark.parametrize("route", [polyhedral_gauss_sum_direct])
def test_dilate_is_not_retained_after_the_sum(monkeypatch, route):
    # evaluating many n on one polytope holds one dilate (and its scan) at a time
    P = make(FUND_TET)
    refs = []

    def tracked(Q, n):
        D = dilate(Q, n)
        refs.append(weakref.ref(D))
        return D

    monkeypatch.setattr(polysum, "dilate", tracked)
    report = route(P, 5)
    del report
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None


@pytest.mark.parametrize("K", [2**31, 2**32 + 3, 2**40 + 1])
def test_direct_route_long_extent(K):
    # n K squared overflows int64 although the box corner is the origin
    pts = [(0, 0, 0), (1, 0, K), (0, 1, 0), (0, 0, 1)]
    P = make(pts)
    for n in (3, 5):
        direct = polyhedral_gauss_sum_direct(P, n).value
        assert abs(direct - tetra_gauss_sum_formula(pts, n).value) < 1e-6, n


def test_dilate_beyond_int64_is_malformed_input():
    # only the far end of the axis the scan walks along, 2 (2^62 + 1), is
    # outside int64
    P = make([(0, 0, 0), (1, 0, 2**62 + 1), (0, 1, 0), (0, 0, 1)])
    assert polyhedral_gauss_sum_direct(P, 1).point_count == 4
    with pytest.raises(MalformedInput, match="exceed int64"):
        polyhedral_gauss_sum_direct(P, 2)


def per_n_reports(P, ns):
    return [polyhedral_gauss_sum_direct(P, n) for n in ns]


@contextlib.contextmanager
def scan_spy():
    """The numerators of each dilate polysum scans inside the block, in
    order."""
    scans = []
    original = polysum.scan_lattice
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polysum, "scan_lattice", lambda Q, lines: scans.append(Q.numerators) or original(Q, lines))
        yield scans


@st.composite
def polytopes_and_moduli(draw):
    """A lattice polytope of dimension 1 to 3 and 2 to 4 distinct moduli in
    1..6."""
    d = draw(st.integers(1, 3))
    ns = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4, unique=True))
    coord = st.integers(-1, 1) if d == 3 else st.integers(-3, 3)
    try:
        P = build_polytope(draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 3)))
    except DegenerateInput:
        assume(False)
    return P, ns


def report_reprs(reports):
    return [(r.n, repr(r.value), r.route, r.point_count, repr(r.residual)) for r in reports]


@seed(20261020)
@settings(max_examples=100, deadline=None)
@given(case=polytopes_and_moduli())
def test_direct_sums_equal_per_n_property(case):
    # the reports, in order, are the per-n calls', each n its own dilate
    P, ns = case
    with scan_spy() as scans:
        reports = polyhedral_gauss_sums_direct(P, ns)
    on_points = [n for n, r in zip(ns, reports) if r.point_count <= polysum._LINE_PATH_POINTS]
    assert scans == [dilate(P, n).numerators for n in on_points]
    assert report_reprs(reports) == report_reprs(per_n_reports(P, ns))


def test_direct_sums_reports(fund_tet, unit_cube):
    # one report per n in the given order, as the per-n calls give them;
    # a repeated n is computed once, and numpy moduli are read as ints
    for P, ns in ((fund_tet, (4, 1, 3, 2, 6)), (unit_cube, (2, 3)), (fund_tet, (3, np.int64(2), 3))):
        with scan_spy() as scans:
            got = polyhedral_gauss_sums_direct(P, ns)
        assert scans == [dilate(P, n).numerators for n in dict.fromkeys(map(int, ns))]
        assert [type(r.n) for r in got] == [int] * len(ns)
        assert got == tuple(per_n_reports(P, [int(n) for n in ns]))
    assert polyhedral_gauss_sums_direct(fund_tet, ()) == ()
    # a one-shot iterable is read once
    assert polyhedral_gauss_sums_direct(fund_tet, (n for n in (1, 2))) == tuple(per_n_reports(fund_tet, (1, 2)))
    assert polyhedral_gauss_sums_direct(fund_tet, iter([3])) == tuple(per_n_reports(fund_tet, (3,)))
    for ns, message in (((1, 0), "must be >= 1"), ((2, 2.0), "must be an integer")):
        with pytest.raises(MalformedInput, match=message):
            polyhedral_gauss_sums_direct(fund_tet, ns)
    with pytest.raises(MalformedInput, match="integer vertices"):
        polyhedral_gauss_sums_direct(make([(0,), ("1/2",)]), (1, 2))


@pytest.mark.parametrize(
    "P, ns",
    [
        (FUND_TET, (3,)),
        (FUND_TET, (5, 7, 8, 9)),
        # 3 P and 4 P reach 4 2^60 on the last axis, within int64
        (((0, 0, 0), (1, 0, 2**60), (0, 1, 0), (0, 0, 1)), (3, 4)),
    ],
)
def test_direct_sums_scan_each_n_on_its_own_dilate(P, ns):
    P = make(P)
    with scan_spy() as scans:
        got = polyhedral_gauss_sums_direct(P, ns)
    assert scans == [dilate(P, n).numerators for n in ns]
    assert got == tuple(per_n_reports(P, ns))


def assert_kernel_equals_counted_sums(P, ns, oracle=None):
    """The kernel's tables, and its reports to the last bit, are
    _counted_sums' on P, or on the oracle polytope given in its place (a
    lattice translate of P, whose tables and weights are P's)."""
    oracle = P if oracle is None else oracle
    reports = polysum.unimodular_gauss_sums(P, ns)
    want = [polysum._counted_sums(oracle, n) for n in ns]
    for n, (value, counts, points) in zip(ns, want):
        if math.comb(n + P.dim, P.dim) <= polysum._LINE_PATH_POINTS:
            table = polysum._unimodular_table(P, n)
            assert table.dtype == np.int64 and np.array_equal(table, counts), n
    vol = float(volume(oracle))
    assert report_reprs(reports) == report_reprs(
        polysum._report(n, P.dim, vol, value, points) for n, (value, _, points) in zip(ns, want)
    )


@st.composite
def unimodular_simplices(draw):
    """A lattice d-simplex of volume 1 / d!, d = 1..3: the vertices t and
    t + m_i, m_i the rows of a random unimodular matrix (a product of
    elementary row operations and a sign), t a random translate."""
    d = draw(st.integers(1, 3))
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    steps = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.integers(-3, 3))
    for i, j, k in draw(st.lists(steps, max_size=8)):
        if i != j:
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    if draw(st.booleans()):
        m[0] = [-x for x in m[0]]
    t = draw(st.tuples(*[st.integers(-(10**6), 10**6)] * d))
    return [t] + [tuple(map(sum, zip(t, row))) for row in m]


@seed(20261022)
@settings(max_examples=60, deadline=None)
@given(pts=unimodular_simplices(), ns=st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True))
def test_unimodular_kernel_equals_counted_sums_property(pts, ns):
    # 40 P has up to 12341 points in 3-d, so both kernel paths are drawn
    assert_kernel_equals_counted_sums(make(pts), ns)


def test_unimodular_kernel_on_every_orbit_to_bound_two():
    for B in (1, 2):
        for _, rep in _enumerate(B)[1]:
            assert_kernel_equals_counted_sums(make(rep), DEFAULT_NS)


def test_unimodular_kernel_far_from_the_origin():
    # 2^60 along the first axis: the scan takes n <= 2 and refuses larger n,
    # whose facet bounds leave int64, while the kernel reduces the vertices
    # mod n first.  The far tetrahedron's tables and weights are those of
    # its translate to the origin, since |x + n t|^2 = |x|^2 mod n.
    near = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 3, 1)]
    far = make([(x + 2**60, y, z) for x, y, z in near])
    assert_kernel_equals_counted_sums(far, (1, 2))
    assert_kernel_equals_counted_sums(far, (3, 4, 5, 12, 34), oracle=make(near))
    with pytest.raises(MalformedInput, match="exceed int64"):
        polysum._counted_sums(far, 3)
    # 35 P has C(38, 3) = 8436 points, past the kernel, so it takes the scan
    assert math.comb(34 + 3, 3) <= polysum._LINE_PATH_POINTS < math.comb(35 + 3, 3)
    with pytest.raises(MalformedInput, match="exceed int64"):
        polysum.unimodular_gauss_sums(far, (35,))


def test_unimodular_compositions(fund_tet, unit_triangle, unit_interval):
    # C(n + d, d) compositions of n into d + 1 parts >= 0, each once, with
    # the id of the face its support spans in a simplex, kept read-only
    # between calls
    for P in (unit_interval, unit_triangle, fund_tet):
        d = P.dim
        ids = {f.vertex_ids: fid for fid, f in enumerate(P.faces)}
        for n in (1, 2, 3, 7):
            parts, face = polysum._compositions(n, d)
            assert parts.shape == (math.comb(n + d, d), d + 1)
            assert sorted(parts.tolist()) == (compositions(n + d + 1, d + 1) - 1).tolist()
            assert face.tolist() == [ids[tuple(i for i, c in enumerate(row) if c)] for row in parts.tolist()]
            assert not parts.flags.writeable and not face.flags.writeable
            assert polysum._compositions(n, d)[0] is parts


def test_unimodular_kernel_refusals(fund_tet, unit_cube, unit_triangle):
    with pytest.raises(MalformedInput, match="integer vertices"):
        polysum.unimodular_gauss_sums(make([(0,), ("1/2",)]), (1,))
    for P in (unit_cube, make([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)]), make([(0, 0), (2, 0), (0, 1)])):
        with pytest.raises(VolumeNotMinimal):
            polysum.unimodular_gauss_sums(P, (1,))
    with pytest.raises(UnsupportedDimension):
        polysum.unimodular_gauss_sums(make([(0,) * 4] + [tuple(int(i == j) for j in range(4)) for i in range(4)]), (1,))
    with pytest.raises(MalformedInput, match="must be >= 1"):
        polysum.unimodular_gauss_sums(fund_tet, (1, 0))
    assert polysum.unimodular_gauss_sums(unit_triangle, ()) == ()
    # a repeated n is counted once and reported twice
    assert polysum.unimodular_gauss_sums(fund_tet, (3, 2, 3)) == tuple(per_n_reports(fund_tet, (3, 2, 3)))


def permuted_face_ids(P, Q, perm):
    """For Q, P with its coordinates permuted by perm, the id in Q of each
    face of P, in P's order."""
    index = {v: i for i, v in enumerate(Q.numerators)}
    image = [index[tuple(v[k] for k in perm)] for v in P.numerators]
    ids = {frozenset(f.vertex_ids): fid for fid, f in enumerate(Q.faces)}
    return [ids[frozenset(image[i] for i in f.vertex_ids)] for f in P.faces]


@pytest.mark.parametrize("K", [171, 511, 512])
def test_thin_tetrahedra_take_the_per_n_scans(K):
    # conv{0, e1, e2, (K, K, 1)} has volume 1/6.  The direct sums scan each
    # n on its own dilate, and up to K = 511 4 P's bounding box holds at
    # most POINT_BUDGET line-facet pairs.  The direct relation test scans
    # none: it counts compositions, so at K = 512 it takes the n = 4 the
    # scan refuses, and its table is that scan's on P with its thin axis
    # first, whose box is small, faces matched by their vertices
    pts = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (K, K, 1))
    P = make(pts)
    with scan_spy() as scans:
        residuals = gauss_relation_test(pts).residuals
    assert scans == []
    assert residuals == {r.n: abs(r.residual) for r in polysum.unimodular_gauss_sums(P, DEFAULT_NS)}
    accepted = DEFAULT_NS if K < 512 else DEFAULT_NS[:3]
    assert_kernel_equals_counted_sums(P, accepted)
    if K < 512:
        with scan_spy() as scans:
            got = polyhedral_gauss_sums_direct(P, DEFAULT_NS)
        assert scans == [dilate(P, n).numerators for n in DEFAULT_NS]
        assert got == tuple(per_n_reports(P, DEFAULT_NS))
        return
    with pytest.raises(MalformedInput, match="line-facet pairs"):
        polyhedral_gauss_sums_direct(P, DEFAULT_NS)
    thin_first = make([(z, x, y) for x, y, z in pts])
    value, counts, points = polysum._counted_sums(thin_first, 4)
    assert np.array_equal(polysum._unimodular_table(P, 4), counts[permuted_face_ids(P, thin_first, (2, 0, 1))])
    report = polysum.unimodular_gauss_sums(P, (4,))[0]
    assert report.point_count == points == 35
    assert abs(report.value - value) < 1e-12
