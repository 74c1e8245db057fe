import dataclasses
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from polygauss import geometry
from polygauss.errors import DegenerateInput, MalformedInput, UnsupportedDimension
from polygauss.geometry import (
    POINT_BUDGET,
    RationalVector,
    build_polytope,
    classify_point,
    dilate,
    face_ids_of_tight,
    integer_facet_system,
    lattice_lines,
    line_points,
    polytope_from_dict,
    polytope_to_dict,
    rvec,
    scan_lattice,
    translate,
    volume,
)
from tests.conftest import CIRCLE_70, DATA, FUND_TET, OCTAHEDRON, SQUARE_PYRAMID, make
from tests.oracles import brute_force_face_lattice, facet_vertices, grid_scan_lattice


def test_vertex_identification_drops_redundant_points():
    P = make([(0, 0), (2, 0), (0, 2), (1, 1), (0, 1)])
    got = {tuple(int(c) for c in v.coords) for v in P.vertices}
    assert got == {(0, 0), (2, 0), (0, 2)}
    # a dropped point's denominator leaves the vertices' alone
    Q = make([(0, 0), (2, 0), (0, 2), ("1/3", "1/2")])
    assert (Q.numerators, Q.denominator) == (P.numerators, 1)


def test_duplicate_points_collapse(unit_cube):
    P = make([(0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])
    assert len(P.vertices) == 4


@pytest.mark.parametrize(
    "fixture,n_facets,by_dim",
    [
        ("unit_cube", 6, {0: 8, 1: 12, 2: 6, 3: 1}),
        ("fund_tet", 4, {0: 4, 1: 6, 2: 4, 3: 1}),
        ("unit_triangle", 3, {0: 3, 1: 3, 2: 1}),
        ("unit_interval", 2, {0: 2, 1: 1}),
    ],
)
def test_face_lattice_counts(request, fixture, n_facets, by_dim):
    P = request.getfixturevalue(fixture)
    assert P.n_facets == n_facets
    dims = {}
    for f in P.faces:
        dims[f.dim] = dims.get(f.dim, 0) + 1
    assert dims == by_dim


def test_classify_point_cases(unit_cube):
    mid = RationalVector(("1/2", "1/2", "1/2"))
    assert classify_point(unit_cube, mid) == unit_cube.full_face_id
    on_facet = classify_point(unit_cube, RationalVector(("1/2", "1/2", "0")))
    assert unit_cube.faces[on_facet].dim == 2
    at_vertex = classify_point(unit_cube, RationalVector((0, 0, 0)))
    assert unit_cube.faces[at_vertex].vertex_ids == (0,)
    assert classify_point(unit_cube, RationalVector((2, 0, 0))) is None
    assert classify_point(unit_cube, ("1/2", "1/2", 0)) == on_facet  # a plain tuple


def test_volumes(unit_cube, fund_tet, unit_triangle, unit_interval):
    assert volume(unit_cube) == 1
    assert volume(fund_tet) == Fraction(1, 6)
    assert volume(unit_triangle) == Fraction(1, 2)
    assert volume(unit_interval) == 1


def test_dilate_scales_volume(fund_tet, unit_triangle):
    assert volume(dilate(fund_tet, 3)) == Fraction(27, 6)
    assert volume(dilate(unit_triangle, 5)) == Fraction(25, 2)
    assert dilate(fund_tet, 1) is fund_tet


def test_lattice_point_counts(fund_tet, unit_cube, unit_interval):
    assert len(scan_lattice(fund_tet)[0]) == 4
    assert len(scan_lattice(dilate(fund_tet, 2))[0]) == 10
    assert len(scan_lattice(unit_cube)[0]) == 8
    assert len(scan_lattice(dilate(unit_cube, 2))[0]) == 27
    assert len(scan_lattice(dilate(unit_interval, 4))[0]) == 5


def test_lattice_point_locations(unit_cube):
    Q = dilate(unit_cube, 2)
    pts, face_ids = scan_lattice(Q)
    interior = pts[face_ids == Q.full_face_id]
    assert interior.tolist() == [[1, 1, 1]]


def test_translate_preserves_shape(fund_tet):
    Q = translate(fund_tet, RationalVector((2, -1, 3)))
    assert volume(Q) == volume(fund_tet)
    assert Q.faces[classify_point(Q, RationalVector((2, -1, 3)))].dim == 0
    assert translate(fund_tet, (2, -1, 3)).vertices == Q.vertices  # a plain tuple


@pytest.mark.parametrize("points", [SQUARE_PYRAMID, OCTAHEDRON], ids=["pyramid", "octahedron"])
def test_faces_of_vertices_on_four_facets(points):
    P = make(points)
    masks = [f.mask for f in P.faces]
    assert len(set(masks)) == len(masks)
    assert P.faces[P.full_face_id].mask == 0
    assert max(bin(f.mask).count("1") for f in P.faces) == 4
    for n in range(1, 5):
        Q = dilate(P, n)
        got, want = scan_lattice(Q), grid_scan_lattice(Q)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # a vertex, an edge midpoint, a facet centroid, the body's centroid
        for fid, face in enumerate(Q.faces):
            centroid = RationalVector(
                sum(Fraction(Q.vertices[i][k]) for i in face.vertex_ids)
                / len(face.vertex_ids)
                for k in range(Q.dim)
            )
            assert classify_point(Q, centroid) == fid


def test_mask_that_names_no_face_is_an_internal_error():
    # (1, -1, 1) lies outside the octahedron on three of its facets, and
    # no face lies on exactly three
    P = make(OCTAHEDRON)
    A, c = integer_facet_system(P)
    tight = A @ np.array([[1, -1, 1], [0, 0, 0]]).T == c[:, None]
    with pytest.raises(AssertionError, match="resolves to no face"):
        face_ids_of_tight(P, tight)


def test_polygon_with_more_facets_than_a_bitmask_holds():
    # 64 edges: masks overflow int64, so points are located one at a time
    P = make([(k, k * k) for k in range(64)])
    assert P.n_facets == 64
    assert P.faces[classify_point(P, rvec(63, 63 * 63))].vertex_ids == (63,)
    assert P.faces[classify_point(P, rvec("1/2", "1/2"))].vertex_ids == (0, 1)
    assert classify_point(P, rvec(1, 2)) == P.full_face_id
    with pytest.raises(UnsupportedDimension, match="bitmask"):
        scan_lattice(P)


def test_dict_round_trip(fund_tet, unit_triangle):
    for P in (fund_tet, unit_triangle):
        Q = polytope_from_dict(polytope_to_dict(P))
        assert Q.vertices == P.vertices
        assert Q.dim == P.dim


def test_from_dict_rational_coordinates():
    P = polytope_from_dict({"dim": 1, "vertices": [["-1/2"], ["3/2"]]})
    assert volume(P) == 2


@pytest.mark.parametrize(
    "data,needle",
    [
        ([1, 2], "top level"),
        ({"vertices": [[0]]}, "dim"),
        ({"dim": "two", "vertices": [[0, 0]]}, "dim"),
        ({"dim": 4, "vertices": [[0, 0, 0, 0]]}, "dim"),
        ({"dim": 2, "vertices": []}, "vertices"),
        ({"dim": 2, "vertices": [[0]]}, "vertices[0]"),
        ({"dim": 1, "vertices": [[0], [None]]}, "vertices[1][0]"),
        ({"dim": 1, "vertices": [["1/0"], [1]]}, "vertices[0][0]"),
        ({"dim": 2, "vertices": [[0, 0], [1, 0], [2, 0]]}, "vertices"),
    ],
)
def test_from_dict_error_paths(data, needle):
    with pytest.raises(MalformedInput) as err:
        polytope_from_dict(data)
    assert needle in str(err.value)


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        build_polytope([(0, 0, 0, 0), (1, 0, 0, 0)])


def test_degenerate_input():
    with pytest.raises(DegenerateInput):
        build_polytope([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(DegenerateInput):
        build_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0)])


coord = st.integers(min_value=-3, max_value=3)


@given(
    pts=st.lists(st.tuples(coord, coord), min_size=3, max_size=6),
    num=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
)
def test_membership_matches_facet_system(pts, num):
    try:
        P = build_polytope(pts)
    except DegenerateInput:
        return
    x = RationalVector((Fraction(num[0], 10), Fraction(num[1], 10)))
    by_planes = all(
        sum(Fraction(a) * c for a, c in zip(normal, x.coords)) <= Fraction(b, P.denominator)
        for normal, b in zip(P.facet_normals, P.facet_bounds)
    )
    assert (classify_point(P, x) is not None) == by_planes


@given(pts=st.lists(st.tuples(coord, coord), min_size=3, max_size=6), k=st.integers(1, 4))
def test_dilate_contains_scaled_vertices(pts, k):
    try:
        P = build_polytope(pts)
    except DegenerateInput:
        return
    Q = dilate(P, k)
    assert volume(Q) == k ** P.dim * volume(P)
    for v in P.vertices:
        assert classify_point(Q, RationalVector(c * k for c in v)) is not None


@pytest.mark.parametrize(
    "raw, value", [(3, 3), ("3", 3), (Fraction(4, 2), 2), (np.int64(-5), -5), ("-6/3", -2)]
)
def test_integral_coordinates_are_builtin_ints(raw, value):
    (c,) = RationalVector([raw]).coords
    assert type(c) is int and c == value


@pytest.mark.parametrize("raw", ["1/2", Fraction(-7, 3), 0.25])
def test_non_integral_coordinates_stay_fractions(raw):
    (c,) = RationalVector([raw]).coords
    assert type(c) is Fraction and c == Fraction(raw)


def test_lattice_polytope_data_stays_int(fund_tet):
    for P in (fund_tet, dilate(fund_tet, 3), translate(fund_tet, rvec(1, -2, 0))):
        assert all(type(c) is int for v in P.vertices for c in v)
        assert P.denominator == 1 and all(type(b) is int for b in P.facet_bounds)


@pytest.mark.parametrize(
    "points, move, image",
    [
        (
            [(0, 0, 0), (0, 0, "1/2"), (0, 1, "1/2"), ("1/2", 0, 0)],
            lambda P: dilate(P, 2),
            [(0, 0, 0), (0, 0, 1), (0, 2, 1), (1, 0, 0)],
        ),
        (
            [("1/2", "1/2"), ("3/2", "1/2"), ("1/2", "3/2")],
            lambda P: translate(P, rvec("1/2", "1/2")),
            [(1, 1), (2, 1), (1, 2)],
        ),
    ],
    ids=["doubled", "moved"],
)
def test_p_q_polytope_moved_onto_the_lattice(points, move, image):
    # a p/q polytope doubled or translated onto the lattice has denominator
    # 1, and the built-in int data and lattice lines of its image's hull
    P = make(points)
    Q, R = move(P), make(image)
    assert (P.denominator, Q.denominator) == (2, 1)
    assert Q.numerators == R.numerators and Q.facet_bounds == R.facet_bounds
    assert all(type(b) is int for b in Q.facet_bounds)
    for got, want in zip(lattice_lines(Q), lattice_lines(R)):
        assert np.array_equal(got, want)


def _rational_coord(integral: bool):
    if integral:
        return st.integers(-3, 3)
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def polytopes(draw):
    """Integer or p/q polytopes in dimension 1..3."""
    d = draw(st.integers(1, 3))
    c = _rational_coord(draw(st.booleans()))
    pts = draw(st.lists(st.tuples(*[c] * d), min_size=d + 1, max_size=d + 4))
    try:
        return build_polytope(pts)
    except DegenerateInput:
        assume(False)


@given(P=polytopes())
def test_incidence_read_off_the_facet_planes(P):
    # build_polytope reads which points lie on each plane once, and ANDs a
    # face's mask from its vertices' masks: a facet, the face of one bit,
    # holds the vertices its equation is tight at, and a face lies on the
    # facets holding all its vertices
    on = facet_vertices(P)
    for N, b, vs in zip(P.facet_normals, P.facet_bounds, on):
        assert vs == {i for i, v in enumerate(P.numerators) if sum(map(int.__mul__, N, v)) == b}
    for f in P.faces:
        assert f.mask == sum(1 << k for k, vs in enumerate(on) if set(f.vertex_ids) <= vs)


def check_face_lattice(P, step=1):
    """P's faces and mask table are the brute-force oracle's, each step-th
    vertex is needed (dropping it lowers the volume), and the vertices
    alone rebuild the same facets."""
    faces, table = brute_force_face_lattice(P)
    assert P.faces == faces
    assert P.mask_table.tolist() == table
    vol = volume(P)
    for i in range(0, len(P.vertices), step):
        try:
            assert volume(build_polytope(P.vertices[:i] + P.vertices[i + 1 :])) < vol
        except DegenerateInput:
            pass  # the rest spans less than P's dimension
    Q = build_polytope(P.vertices)
    assert (Q.facet_normals, Q.facet_bounds, Q.faces) == (P.facet_normals, P.facet_bounds, P.faces)


@given(P=polytopes())
def test_face_lattice_matches_brute_force_oracle(P):
    check_face_lattice(P)


@pytest.mark.parametrize(
    "points, step",
    [(json.loads(p.read_text())["vertices"], 1) for p in sorted(DATA.glob("*.json"))]
    # each 69-point hull of CIRCLE_70 less a vertex takes 60 ms: every 7th
    + [(SQUARE_PYRAMID, 1), (OCTAHEDRON, 1), (CIRCLE_70, 7)],
    ids=[p.stem for p in sorted(DATA.glob("*.json"))] + ["pyramid", "octahedron", "circle-70"],
)
def test_face_lattice_of_fixtures_matches_brute_force_oracle(points, step):
    check_face_lattice(make(points), step)


@given(P=polytopes())
def test_volume_is_the_leading_ehrhart_coefficient(P):
    # #(nL & Z^d) is a degree-d polynomial in n for the lattice polytope
    # L = qP, with leading coefficient vol(L) = q^d vol(P) (Ehrhart; Beck
    # and Robins, Computing the Continuous Discretely): interpolated from
    # the counts at n = 0..d, its d-th difference over d!, with no
    # triangulation.  A dL past the lattice-point budget is skipped (3000
    # random draws held none; the largest held 14.9M points)
    d, L = P.dim, dilate(P, P.denominator)
    try:
        counts = [1] + [int(lattice_lines(dilate(L, n))[2].sum()) for n in range(1, d + 1)]
    except MalformedInput:
        assume(False)
    diff = sum((-1) ** (d - n) * math.comb(d, n) * c for n, c in enumerate(counts))
    assert Fraction(diff, math.factorial(d)) == P.denominator**d * volume(P)


@given(P=polytopes(), n=st.integers(1, 8), shift=st.tuples(*[_rational_coord(False)] * 3))
def test_scan_lattice_matches_grid_oracle(P, n, shift):
    Q = dilate(P, n)
    pts, face_ids = scan_lattice(Q)
    want_pts, want_ids = grid_scan_lattice(Q)
    assert pts.dtype == face_ids.dtype == np.int64
    assert np.array_equal(pts, want_pts)
    assert np.array_equal(face_ids, want_ids)
    # the exact data stays in lowest terms through a dilate and a p/q
    # translate, and gives the vertices n v and v + s computed in Fraction
    s = shift[: P.dim]
    moved = translate(P, RationalVector(s))
    assert Q.vertices == tuple(RationalVector(n * Fraction(c) for c in v) for v in P.vertices)
    assert moved.vertices == tuple(RationalVector(map(sum, zip(v, s))) for v in P.vertices)
    for R in (P, Q, moved):
        assert math.gcd(R.denominator, *itertools.chain(*R.numerators)) == 1
        for N, b, on in zip(R.facet_normals, R.facet_bounds, facet_vertices(R)):
            assert all(sum(a * c for a, c in zip(N, R.numerators[i])) == b for i in on)


@pytest.mark.parametrize(
    "fixture", ["fund_tet", "unit_cube", "unit_triangle", "unit_interval"]
)
def test_scan_lattice_matches_grid_oracle_on_fixtures(request, fixture):
    P = request.getfixturevalue(fixture)
    for n in (1, 2, 5, 13):
        Q = dilate(P, n)
        got, want = scan_lattice(Q), grid_scan_lattice(Q)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_scan_lattice_chunks_match_grid_oracle(monkeypatch, fund_tet, unit_cube, unit_triangle, unit_interval):
    # chunk boundaries fall inside lines and inside runs of equal heads;
    # every dimension takes the same chunk loop, the 1-d one over one head
    monkeypatch.setattr(geometry, "_SCAN_CHUNK", 7)
    for P in (fund_tet, unit_cube, unit_triangle, unit_interval):
        Q = dilate(P, 9)
        got, want = scan_lattice(Q), grid_scan_lattice(Q)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# a triangular prism under the roof z <= 3 - x - y/2: its three side
# facets are parallel to the lines the scan walks
SLANTED_PRISM = ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 3), (2, 0, 1), (0, 2, 2))
UNIT_CUBE = tuple(itertools.product((0, 1), repeat=3))


def _line_shapes(Q):
    """Which of the cases that face location by line endpoints must get
    right occur in the dilate Q."""
    pts, _ = grid_scan_lattice(Q)
    A, c = integer_facet_system(Q)
    _, first, counts = np.unique(pts[:, :-1], axis=0, return_index=True, return_counts=True)
    tight = pts @ A.T == c
    shared = (tight[first] & tight[first + counts - 1]).any(axis=1)
    shapes = set()
    if (counts == 1).any():
        shapes.add("one-point line")
    if (A[:, -1] == 0).any():
        shapes.add("facet along the lines")
    if (shared & (counts > 1)).any():
        shapes.add("both ends on one facet")
    return shapes


@pytest.mark.parametrize(
    "points, shapes",
    [
        (SQUARE_PYRAMID, {"one-point line"}),
        (OCTAHEDRON, {"one-point line"}),
        (SLANTED_PRISM, {"facet along the lines", "both ends on one facet"}),
        (UNIT_CUBE, {"facet along the lines", "both ends on one facet"}),
    ],
    ids=["pyramid", "octahedron", "slanted-prism", "cube"],
)
def test_scan_locates_faces_from_line_endpoints(points, shapes):
    P = make(points)
    seen = set()
    for n in range(1, 6):
        Q = dilate(P, n)
        got, want = scan_lattice(Q), grid_scan_lattice(Q)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        seen |= _line_shapes(Q)
    assert shapes <= seen


# a tetrahedron with p/q vertices, so its facet offsets are not integers
PQ_TETRAHEDRON = (("1/2", 0, 0), (3, "1/3", 0), (0, "5/2", 1), (1, 1, "7/3"))


@pytest.mark.parametrize(
    "points",
    [SQUARE_PYRAMID, OCTAHEDRON, SLANTED_PRISM, UNIT_CUBE, PQ_TETRAHEDRON],
    ids=["pyramid", "octahedron", "slanted-prism", "cube", "p/q"],
)
def test_lattice_lines_give_each_line_its_faces(points):
    # the faces of each line's first point, last point and a point between
    # are those the grid scan finds, near the origin and 3 * 10^9 away
    P = make(points)
    for Q in (P, translate(P, RationalVector((3 * 10**9,) * 3))):
        for n in range(1, 6):
            counts = lines_match_grid(dilate(Q, n))
            assert (counts > 2).any() or n == 1


def lines_match_grid(Q):
    """Assert that lattice_lines(Q) gives the lines the grid scan finds:
    each line's head, first last coordinate and count, and the faces of its
    first point, its last point and a point between; returns the counts."""
    heads, lower, counts, faces = lattice_lines(Q)
    pts, fids = grid_scan_lattice(Q)
    _, first, sizes = np.unique(pts[:, :-1], axis=0, return_index=True, return_counts=True)
    assert np.array_equal(heads, pts[first, :-1]) and np.array_equal(counts, sizes)
    assert np.array_equal(lower, pts[first, -1])
    assert faces.dtype == np.int64 and faces.shape == (3, len(counts))
    assert np.array_equal(faces[0], fids[first])
    assert np.array_equal(faces[1], fids[first + sizes - 1])
    between = sizes > 2
    assert np.array_equal(faces[2][between], fids[first + sizes // 2][between])
    return counts


# a tetrahedron with facets of a_k = 2, -1, 0 and 1, for a_k the normal's
# last coordinate
STEEP_TETRAHEDRON = ((0, 0, 0), (3, 0, 0), (2, 0, 3), (-2, -3, 0))


def _shadow_shapes(Q):
    """Which of the cases that the scan of the heads under the shadow must
    get right occur in the dilate Q."""
    lo, hi = Q.bbox()
    box = np.prod([math.floor(h) - math.ceil(l) + 1 for l, h in zip(lo[:-1], hi[:-1])])
    shapes = set()
    if Q.dim == 3 and len(lattice_lines(Q)[2]) < box:
        shapes.add("shadow inside the box")
    a = [n[-1] for n in Q.facet_normals]
    if any(abs(x) > 1 for x in a):
        shapes.add("|a_k| > 1")
    if 0 in a:
        shapes.add("a_k = 0")
    if any(b % Q.denominator for b in Q.facet_bounds):
        shapes.add("fractional offset")
    return shapes


@pytest.mark.parametrize(
    "points, shapes, big",
    [
        (((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)), {"shadow inside the box"}, 37),
        (OCTAHEDRON, {"shadow inside the box"}, 37),
        (STEEP_TETRAHEDRON, {"shadow inside the box", "|a_k| > 1", "a_k = 0"}, 13),
        (SLANTED_PRISM, {"shadow inside the box", "a_k = 0"}, 37),
        (PQ_TETRAHEDRON, {"shadow inside the box", "|a_k| > 1"}, 37),
        # PQ_TETRAHEDRON moved by (1/2, 0, 0), which leaves an offset fractional
        (
            ((1, 0, 0), ("7/2", "1/3", 0), ("1/2", "5/2", 1), ("3/2", 1, "7/3")),
            {"fractional offset"},
            37,
        ),
        (((0, 0), (7, 2), (3, 5)), {"|a_k| > 1"}, 37),
        ((("1/2", 0), (5, "1/3"), ("7/3", 4)), {"|a_k| > 1", "fractional offset"}, 37),
        ((("1/3",), ("17/4",)), {"fractional offset"}, 37),
    ],
    ids=[
        "fund-tet", "octahedron", "steep", "slanted-prism", "p/q", "p/q-moved",
        "triangle", "p/q-triangle", "interval",
    ],
)
def test_lines_under_the_shadow_match_the_grid(points, shapes, big):
    # the lines of the heads under P's shadow are the grid scan's, for
    # n = 1..5 and one larger n (13 where the grid would be too large),
    # near the origin and 3 * 10^9 away
    P = make(points)
    far = translate(P, RationalVector((3 * 10**9 + 7,) * P.dim))
    seen = set()
    for n in (1, 2, 3, 4, 5, big):
        for Q in (dilate(P, n), dilate(far, n)):
            lines_match_grid(Q)
            seen |= _shadow_shapes(Q)
    assert shapes <= seen


def test_shadow_bounds_that_overflow_int64_raise():
    # x2 eliminated from the facets (-1, -3, 2) and (1, -3, -2), both with
    # |a_k| = 2, gives the shadow's side 2 N_k + 2 N_j = (0, -12, 0), whose
    # bound overflows int64 near x1 = 2^61 though every facet bound fits;
    # 3 * 10^9 away the tetrahedron scans
    P = make(((0, 0, 0), (2, 0, 1), (3, 1, 0), (0, 2, 3)))
    lines_match_grid(dilate(translate(P, RationalVector((0, 3 * 10**9, 0))), 4))
    far = translate(P, RationalVector((0, 2**61, 0)))
    integer_facet_system(far)
    with pytest.raises(MalformedInput, match="facet bounds exceed int64"):
        lattice_lines(far)


def test_lines_near_2_to_61_are_the_lines_moved():
    # on STEEP_TETRAHEDRON moved by 2^61 along x0 the rooms of the facet
    # (-3, 2, 2) are c_k + 3 x0 with c_k near -3 * 2^61: small, although
    # |c_k| + 3 |x0| exceeds int64, so the scan goes on and its lines are
    # the unmoved ones, moved
    Q = dilate(make(STEEP_TETRAHEDRON), 4)
    heads, lower, counts, faces = lattice_lines(Q)
    moved = lattice_lines(translate(Q, RationalVector((2**61, 0, 0))))
    assert np.array_equal(moved[0], heads + [2**61, 0])
    for got, want in zip(moved[1:], (lower, counts, faces)):
        assert np.array_equal(got, want)


def test_line_stage_memory_on_the_cube():
    # the unit cube at n = 128: 16,641 lines in two chunks of heads with
    # six facets each.  Forming both ends' tight masks in one (2, chunk,
    # facets) product peaked at 4.6 MB here, the rooms and masks of one
    # chunk at a time in one reused buffer at 3.6 MB.
    Q = dilate(make(UNIT_CUBE), 128)
    tracemalloc.start()
    try:
        lattice_lines(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.1e6


def test_scan_locates_faces_on_a_needle():
    # conv{0, (1,0,K), (0,1,0), (0,0,1)} spans 2^32 along the scan axis, too
    # long for the grid oracle.  It is unimodular, so the lattice points of
    # nT are the sums of a_i v_i with integers a_i >= 0 adding up to n, each
    # in the relative interior of the face on the v_i with a_i > 0.
    P = make([(0, 0, 0), (1, 0, 2**32 + 3), (0, 1, 0), (0, 0, 1)])
    V = np.array([v.coords for v in P.vertices], dtype=np.int64)
    face_of = {f.vertex_ids: fid for fid, f in enumerate(P.faces)}
    for n in (1, 2, 3, 5):
        a = np.array([w for w in itertools.product(range(n + 1), repeat=4) if sum(w) == n])
        pts = a @ V
        fids = np.array([face_of[tuple(np.flatnonzero(w).tolist())] for w in a])
        order = np.lexsort(pts.T[::-1])
        got = scan_lattice(dilate(P, n))
        assert np.array_equal(got[0], pts[order]) and np.array_equal(got[1], fids[order])


def test_scan_lattice_refuses_requests_over_the_budget(unit_cube, unit_interval):
    # 100001^2 lines x 6 facets: refused before any array is allocated
    with pytest.raises(MalformedInput, match="line-facet pairs exceed the budget"):
        scan_lattice(dilate(unit_cube, 100_000))
    # one line holding POINT_BUDGET + 1 points
    with pytest.raises(MalformedInput, match="lattice points exceed the budget"):
        scan_lattice(dilate(unit_interval, POINT_BUDGET))


def _prism(length):
    """A prism over a 20-gon inscribed in the unit circle, along x0 from 0
    to length: 22 facets, the two caps and 10 up and 10 down sides."""
    ring = []
    for j in range(-4, 6):
        t = Fraction(j, 6)
        x, y = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        ring += [(x, y), (-x, -y)]
    return make([(x0, x, y) for x0 in (0, length) for x, y in ring])


def test_lattice_lines_take_a_long_prism_by_its_two_shadow_sides():
    # only the prism's two edges along x0 at (x1, x2) = (+-1, 0) join an up
    # and a down facet, so its shadow has two sides and 24 rooms per x0
    # row: 4.8M over 200001 rows, within the budget, where the 90 sides
    # with an x1 term from all its 100 up and down pairs would give 22.4M
    P = _prism(200_000)
    assert P.n_facets == 22
    heads, lower, counts, faces = lattice_lines(P)
    assert len(counts) == 600_003 and (counts == 1).all() and (lower == 0).all()
    # its lines are those of the prism of length 2, the middle row repeated
    short = _prism(2)
    assert short.faces == P.faces
    want = lattice_lines(short)
    assert np.array_equal(lines_match_grid(short), np.ones(9, np.int64))
    assert np.array_equal(heads[:, 1], np.tile(want[0][:3, 1], 200_001))
    assert np.array_equal(heads[:, 0], np.arange(200_001).repeat(3))
    middle = np.tile(want[3][:, 3:6], 199_999)
    assert np.array_equal(faces, np.concatenate([want[3][:, :3], middle, want[3][:, 6:]], axis=1))


def test_lattice_lines_refuses_shadow_rooms_over_the_budget(monkeypatch):
    # a thin p/q tetrahedron along x0 with one x1 row: its 1000 x0 rows of
    # one line and four facets pass a budget of 5000 pairs, but its
    # shadow's two true sides, x1 >= 0 and x0 / 999 + 2 x1 <= 1, give six
    # rooms a row, 6000 in all
    monkeypatch.setattr(geometry, "POINT_BUDGET", 5000)
    P = make([(0, 0, 0), (999, 0, 0), (0, "1/2", 0), (0, 0, 1)])
    with pytest.raises(MalformedInput, match="6000 shadow rooms exceed the budget of 5000"):
        lattice_lines(P)


def test_line_points_fill_each_interval_in_order():
    heads = np.array([[0, 5], [1, 5], [2, 7]])
    rows = line_points(heads, np.array([3, 0, -1]), np.array([2, 0, 3]))
    assert rows.tolist() == [[0, 5, 3], [0, 5, 4], [2, 7, -1], [2, 7, 0], [2, 7, 1]]


def test_a_polytope_is_frozen_and_its_moves_share_its_face_lattice():
    P = make(FUND_TET)  # its own, so a failed refusal cannot alter a shared fixture
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.denominator = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.faces = ()
    for Q in (dilate(P, 3), translate(P, rvec("1/2", 0, 1))):
        assert Q is not P
        assert Q.faces is P.faces and Q.mask_table is P.mask_table
        assert Q.facet_normals is P.facet_normals
