import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from polygauss import weyl
from polygauss.angles import face_angle
from polygauss.errors import DegenerateInput, DimensionMismatch, MalformedInput, UnsupportedDimension
from polygauss.geometry import RationalVector, dilate, polytope_from_dict, translate
from polygauss.weyl import (
    MultiTilingReport,
    _orbit_face_ids,
    _orbit_frame,
    canonical_form,
    f_P,
    multitiling_check,
    weyl_elements,
)
from tests.conftest import (
    CIRCLE_70,
    DATA,
    FUND_TET,
    OCTAHEDRON,
    SECOND_TILE_TET,
    SQUARE_PYRAMID,
    load_bundled,
    make,
)
from tests.oracles import loop_multitiling_check, loop_orbit_faces, loop_orbit_weight_sum

FT_CANONICAL = ((-1, -1, -1), (-1, -1, 0), (-1, 0, 0), (0, 0, 0))
SECOND_CANONICAL = ((-2, -1, -1), (-1, -1, -1), (-1, -1, 0), (0, 0, 0))


def _signed_permutation(m: np.ndarray) -> bool:
    """Each row and each column holds one entry +-1 and zeros elsewhere."""
    return bool(
        np.isin(m, (-1, 0, 1)).all()
        and (np.abs(m).sum(axis=0) == 1).all()
        and (np.abs(m).sum(axis=1) == 1).all()
    )


def _keys(mats: np.ndarray) -> set[bytes]:
    return {m.tobytes() for m in mats}


@pytest.mark.parametrize("d,order", [(1, 2), (2, 8), (3, 48)])
def test_group_order(d, order):
    W = weyl_elements(d)
    assert W.shape == (order, d, d) and W.dtype == np.int64
    assert not W.flags.writeable
    assert all(_signed_permutation(m) for m in W)
    assert len(_keys(W)) == order
    assert np.eye(d, dtype=np.int64).tobytes() in _keys(W)


def test_group_axioms_dimension_two():
    W = weyl_elements(2)
    table = _keys(W)
    assert np.eye(2, dtype=np.int64).tobytes() in table
    for g in W:
        assert (g @ g.T == np.eye(2)).all()  # the inverse is the transpose
        assert g.T.tobytes() in table
        assert _keys(g @ W) <= table


def test_group_closure_spot_checks_dimension_three():
    W = weyl_elements(3)
    table = _keys(W)
    rng = random.Random(3)
    for _ in range(200):
        g, h = W[rng.randrange(len(W))], W[rng.randrange(len(W))]
        assert (g @ h).tobytes() in table
        assert (g @ g.T == np.eye(3)).all()  # the inverse is the transpose
        assert g.T.tobytes() in table


def test_orbit_count_generic_points(unit_cube, fund_tet, second_tile_tet):
    x = RationalVector((Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)))
    assert f_P(unit_cube, x) == pytest.approx(48.0, abs=1e-12)
    assert f_P(fund_tet, x) == pytest.approx(8.0, abs=1e-12)
    assert f_P(second_tile_tet, x) == pytest.approx(8.0, abs=1e-12)


def test_orbit_count_interval(unit_interval):
    assert f_P(unit_interval, RationalVector((Fraction(2, 7),))) == pytest.approx(
        2.0, abs=1e-12
    )


@pytest.fixture(scope="module")
def far_cube(unit_cube):
    return translate(unit_cube, RationalVector((10**15, -(10**15), 3)))


@pytest.mark.parametrize(
    "fixture,mult",
    [
        ("unit_interval", 2),
        ("unit_triangle", 4),
        ("unit_square", 8),
        ("unit_cube", 48),
        ("far_cube", 48),
        ("fund_tet", 8),
        ("second_tile_tet", 8),
    ],
)
def test_multitiling_accepts(request, fixture, mult):
    P = request.getfixturevalue(fixture)
    rep = multitiling_check(P, sample_count=40, seed=5)
    assert rep.is_multitiling
    assert rep.multiplicity == mult
    assert rep.expected == mult
    assert rep.samples_checked == 40
    assert rep.witnesses == ()


ORACLE_SHAPES = [
    [(0, 0), (1, 0), (1, 3)],
    [(0, 0), (3, 1), (1, 3)],
    [(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)],
    [("0", "0"), ("1", "0"), ("0", "1/2")],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)],
    [("0",), ("1/4",)],
]


@pytest.fixture(scope="module")
def oracle_polytopes(far_cube):
    shapes = [polytope_from_dict(load_bundled(p.stem)) for p in sorted(DATA.glob("*.json"))]
    return shapes + [make(pts) for pts in ORACLE_SHAPES] + [far_cube]


def test_orbit_count_matches_loop_oracle(oracle_polytopes):
    rng = random.Random(41)
    for P, q in itertools.product(oracle_polytopes, (7, 12, 30, 10007)):
        # numerators in [-3q, 3q): points outside the fundamental region,
        # not reduced mod q, and often on the boundary for small q
        rows = [[rng.randrange(-3 * q, 3 * q) for _ in range(P.dim)] for _ in range(30)]
        # adjacent samples with the same orbit: a duplicate row, a row equal
        # mod q, and the origin's one-image orbit twice, whose images only
        # the sample index tells apart
        rows[4] = rows[3]
        rows[6] = [v + q * rng.randrange(-2, 3) for v in rows[5]]
        rows[20], rows[21] = [0] * P.dim, [q * rng.randrange(-2, 3) for _ in range(P.dim)]
        owner, ids = _orbit_face_ids(P, _orbit_frame(P), rows, q)
        assert (np.diff(owner) >= 0).all()  # sample order
        for s, a in enumerate(rows):
            x = RationalVector(Fraction(v, q) for v in a)
            mine = ids[owner == s]
            angles, hits, boundary = loop_orbit_weight_sum(P, x, indicator=False)
            assert len(mine) == hits, (P, x)
            assert bool((mine != P.full_face_id).any()) == boundary, (P, x)
            batched = math.fsum(face_angle(P, f) for f in mine.tolist())
            assert batched == pytest.approx(angles, abs=1e-12), (P, x)
            assert f_P(P, x) == batched, (P, x)


COINCIDENT_SHAPES = [
    [(0,), (1,)],
    [("-1/2",), ("3/4",)],
    [(0, 0), (1, 0), (0, 1)],
    [(0, 0), (3, 1), (1, 3)],
    FUND_TET,
    SECOND_TILE_TET,
    [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)],
]


@pytest.mark.parametrize("q", [1, 2, 4, 10007, 2**40 + 15])
def test_orbit_query_on_coinciding_signed_coordinates(q):
    # the query names an image's coordinates by the first of the sample's
    # signed coordinates +-a_i mod q holding their value, so samples where
    # these coincide (a_i = a_j, a_i = -a_j, a_i = 0, a_i = q/2) have fewer
    # distinct images than |W|; at q = 2^40 + 15 a key packing the values,
    # S q^3, would overflow int64 in 3-d
    rng = random.Random(q)
    for points in COINCIDENT_SHAPES:
        P = make(points)
        r, s = rng.randrange(q), rng.randrange(q)
        values = [0, r, -r, s] + ([q // 2] if q % 2 == 0 else [])
        rows = [[v + q * rng.randrange(-2, 3) for v in row] for row in itertools.product(values, repeat=P.dim)]
        owner, ids = _orbit_face_ids(P, _orbit_frame(P), rows, q)
        assert (np.diff(owner) >= 0).all()  # sample order
        for i, a in enumerate(rows):
            x = RationalVector(Fraction(v, q) for v in a)
            assert sorted(ids[owner == i].tolist()) == sorted(loop_orbit_faces(P, x)), (P, x)


@pytest.fixture
def grids(monkeypatch):
    """The translation grids the orbit queries run, one (d, T) array per
    query, in call order."""
    seen = []
    translations = weyl._translations

    def spy(*args):
        seen.append(translations(*args))
        return seen[-1]

    monkeypatch.setattr(weyl, "_translations", spy)
    return seen


def _grid_oracle(P, rows, q):
    """ceil(lo'_i - max u_i/q) .. floor(hi'_i - min u_i/q) on each axis, in
    Fractions, over the images u = w a mod q of the batch and the box
    [lo', hi'] of P - floor(lo)."""
    images = np.concatenate([np.array(rows) @ w.T % q for w in weyl_elements(P.dim)])
    axes = []
    for lo, hi, top, bottom in zip(*P.bbox(), images.max(axis=0).tolist(), images.min(axis=0).tolist()):
        corner = math.floor(lo)
        low, high = lo - corner - Fraction(top, q), hi - corner - Fraction(bottom, q)
        axes.append(range(math.ceil(low), math.floor(high) + 1))
    return list(itertools.product(*axes))


PRUNED_SHAPES = {
    "interval": [("-1/2",), ("3/4",)],
    "short-interval": [("3/5",), ("9/10",)],  # missed by u/q near 1/2
    "wide-box": [(i, j, k) for i in (0, 3) for j in (-1, 1) for k in (2, 6)],
    "pq-wide": [("-9/4", "2/3"), ("2", "2/3"), ("0", "11/4")],  # lo' = (3/4, 2/3)
    "fund_tet": FUND_TET,
}


@pytest.mark.parametrize("name", [*PRUNED_SHAPES, "pq_triangle_2d", "far_cube"])
def test_translation_grid_holds_only_translations_that_can_hold_an_image(request, grids, name):
    if name in PRUNED_SHAPES:
        P = make(PRUNED_SHAPES[name])
    elif name == "far_cube":
        P = request.getfixturevalue(name)
    else:
        P = polytope_from_dict(load_bundled(name))
    extents = np.array([math.floor(hi) - math.floor(lo) + 1 for lo, hi in zip(*P.bbox())])
    rng = random.Random(47)
    for q in (20, 10007):
        generic = [weyl._sample_fundamental_point(rng, P.dim, q) for _ in range(6)]
        batches = {
            "generic": generic,
            "one": generic[:1],
            "near": [[rng.choice([1, 2, q // 2 - 1, q // 2, q // 2 + 1]) for _ in range(P.dim)] for _ in range(4)],
            "zero": generic + [[0] + a[1:] for a in generic[:2]],
            "middle": [[q // 2 + 1] * P.dim],
        }
        for kind, rows in batches.items():
            owner, ids = _orbit_face_ids(P, _orbit_frame(P), rows, q)
            mu = grids[-1]
            assert sorted(map(tuple, mu.T.tolist())) == _grid_oracle(P, rows, q), (P, kind, q)
            assert ((0 <= mu) & (mu < extents[:, None])).all()
            for s, a in enumerate(rows):
                x = RationalVector(Fraction(v, q) for v in a)
                assert sorted(ids[owner == s].tolist()) == sorted(loop_orbit_faces(P, x)), (P, x)
            if P.denominator == 1 and kind in ("generic", "zero"):
                # a lattice box's top translation holds only images with a
                # u_i = 0, and W carries a zero coordinate to every axis
                assert mu.max(axis=1).tolist() == (extents - (kind == "generic") - 1).tolist()
            # u/q near 1/2 on every axis cannot reach back to lo' > 1/2
            if kind == "middle" and name == "short-interval":
                assert mu.size == 0
            if kind == "middle" and name == "pq-wide":
                assert mu.min(axis=1).tolist() == [1, 1]


def test_generic_fund_tet_samples_meet_one_translation(grids, fund_tet):
    # a generic sample's images have 0 < u_i < q, so only mu = 0 can bring
    # them into the unit box of fund_tet, against 8 translations unpruned
    rep = multitiling_check(fund_tet, sample_count=200, seed=7)
    assert rep.is_multitiling and len(grids) > 1
    assert all(mu.tolist() == [[0], [0], [0]] for mu in grids)


def test_orbit_sum_of_a_point_beyond_int64(fund_tet):
    # f_P reduces the numerators mod q before the int64 query
    x = RationalVector((10**30 + Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)))
    assert f_P(fund_tet, x) == 8.0
    assert f_P(fund_tet, x.coords) == 8.0  # a plain tuple of exact coordinates


@pytest.mark.parametrize("points", [SQUARE_PYRAMID, OCTAHEDRON], ids=["pyramid", "octahedron"])
def test_orbit_count_matches_loop_oracle_on_four_facet_vertices(points):
    P = make(points)
    rng = random.Random(43)
    for i in range(30):
        Q = dilate(P, 1 + i % 4)
        # small denominators put many orbit points on vertices and edges
        q = rng.choice([2, 3, 4, 10007])
        a = [rng.randrange(-3 * q, 3 * q) for _ in range(3)]
        x = RationalVector(Fraction(v, q) for v in a)
        owner, ids = _orbit_face_ids(Q, _orbit_frame(Q), [a], q)
        angles, hits, boundary = loop_orbit_weight_sum(Q, x, indicator=False)
        assert len(ids) == hits and not owner.any(), (Q, x)
        assert bool((ids != Q.full_face_id).any()) == boundary, (Q, x)
        assert f_P(Q, x) == pytest.approx(angles, rel=1e-14, abs=1e-12), (Q, x)


def test_orbit_sum_rejects_a_point_of_another_dimension(unit_triangle):
    for coords in ((Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)), (Fraction(1, 3),)):
        with pytest.raises(DimensionMismatch):
            f_P(unit_triangle, RationalVector(coords))


def _reports_match_oracle(polytopes, seeds, sample_counts) -> list[tuple[MultiTilingReport, int]]:
    reports = []
    for P in polytopes:
        for seed in seeds:
            for n in sample_counts:
                rep = multitiling_check(P, sample_count=n, seed=seed)
                assert rep == loop_multitiling_check(P, sample_count=n, seed=seed), (P, seed, n)
                reports.append((rep, n))
    return reports


def test_multitiling_check_matches_per_sample_oracle(oracle_polytopes):
    _reports_match_oracle(oracle_polytopes, range(3), (1, 5, 40, 200))


@pytest.mark.parametrize("q", [11, 13])
def test_multitiling_check_matches_oracle_through_redraws(monkeypatch, oracle_polytopes, q):
    # so small a denominator puts many orbits on the boundary of P
    monkeypatch.setattr(weyl, "SAMPLE_DENOMINATOR", q)
    reports = _reports_match_oracle(oracle_polytopes, range(3), (1, 5, 40, 200))
    # stopped by more than 50 redraws: neither all samples nor 5 witnesses
    assert any(r.samples_checked < n and len(r.witnesses) < 5 for r, n in reports)


@pytest.mark.parametrize("cells", [1, 1 << 24], ids=["one-sample", "all-samples"])
def test_multitiling_check_does_not_depend_on_the_batch(monkeypatch, oracle_polytopes, cells):
    monkeypatch.setattr(weyl, "_ORBIT_BATCH_CELLS", cells)
    _reports_match_oracle(oracle_polytopes, (0, 7), (1, 5, 40, 200))


def test_multitiling_rejects_standard_simplex(std_simplex):
    rep = multitiling_check(std_simplex, sample_count=40, seed=5)
    assert not rep.is_multitiling
    assert rep.multiplicity is None
    assert rep.expected == 8
    assert rep.witnesses
    for pt, count in rep.witnesses:
        assert count != 8
        assert len(pt) == 3
        assert all(Fraction(c).denominator == 10007 for c in pt)


def test_multitiling_rejection_by_the_first_samples_takes_one_small_query(monkeypatch, std_simplex):
    sizes = []

    def counted(P, frame, a, q):
        sizes.append(len(a))
        return _orbit_face_ids(P, frame, a, q)

    monkeypatch.setattr(weyl, "_orbit_face_ids", counted)
    rep = multitiling_check(std_simplex, sample_count=200, seed=5)
    assert len(rep.witnesses) == 5 and rep.samples_checked == 5
    assert sizes == [5]


def test_lattice_triangles_always_tile():
    # in the plane every lattice polygon is a multi-tiler; spot checks
    for pts, mult in [
        ([(0, 0), (1, 0), (1, 3)], 12),
        ([(0, 0), (3, 1), (1, 3)], 32),
        ([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)], 28),
    ]:
        rep = multitiling_check(make(pts), sample_count=30, seed=2)
        assert rep.is_multitiling and rep.multiplicity == mult


def test_multitiling_rejects_non_lattice_shapes():
    # rational but non-lattice shapes can miss even with integer expected count
    tri = make([("0", "0"), ("1", "0"), ("0", "1/2")])
    rep = multitiling_check(tri, sample_count=40, seed=2)
    assert not rep.is_multitiling
    assert rep.expected == 2
    assert {c for _, c in rep.witnesses} <= {0, 3}


def test_multitiling_rejects_tall_tetrahedron():
    P = make([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])
    rep = multitiling_check(P, sample_count=40, seed=2)
    assert not rep.is_multitiling
    assert rep.expected == 24
    assert all(c != 24 for _, c in rep.witnesses)


def test_multitiling_fractional_expected_count():
    # volume 1/2 interval: |W| vol = 1 but samples cannot all hit it;
    # actually expected is exact here, so use vol 1/4 for a non-integer
    P = make([("0",), ("1/4",)])
    rep = multitiling_check(P, sample_count=5, seed=0)
    assert not rep.is_multitiling
    assert rep.expected is None


def test_orbit_query_packs_tight_rows_one_facet_at_a_time():
    # one sample's 384000 orbit points inside a cube of side 20: a (facet,
    # candidate) int64 array of either slack part takes 18 MB, so gathering
    # both at once peaks near 49 MB and forming the points z near 28 MB,
    # while packing one facet's tight row at a time peaks near 20 MB
    P = make([(i, j, k) for i in (0, 20) for j in (0, 20) for k in (0, 20)])
    frame = _orbit_frame(P)
    tracemalloc.start()
    try:
        _, ids = _orbit_face_ids(P, frame, [[1234, 2345, 3456]], 10007)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ids) == 48 * 20**3
    assert peak < 24e6


def test_multitiling_check_refuses_more_facets_than_a_bitmask_holds():
    # the tight masks of 70 facets overflow int64, so no orbit point can be
    # located; the check says so instead of failing inside numpy
    P = make([[Fraction(c, 1000) for c in p] for p in CIRCLE_70])
    assert P.n_facets == 70
    with pytest.raises(UnsupportedDimension, match="bitmask"):
        multitiling_check(P)


def test_multitiling_deterministic(fund_tet):
    a = multitiling_check(fund_tet, sample_count=25, seed=9)
    b = multitiling_check(fund_tet, sample_count=25, seed=9)
    assert a == b


def test_multitiling_bad_sample_count(fund_tet):
    with pytest.raises(MalformedInput):
        multitiling_check(fund_tet, sample_count=0)


@pytest.mark.parametrize("count", [2.5, "3", True, False, None, 4.0, -2], ids=repr)
def test_multitiling_sample_count_must_be_a_positive_integer(fund_tet, count):
    # a bool is not a count: True would check one sample
    with pytest.raises(MalformedInput, match="sample_count must be"):
        multitiling_check(fund_tet, sample_count=count)


def test_multitiling_takes_a_numpy_integer_sample_count(fund_tet):
    rep = multitiling_check(fund_tet, sample_count=np.int64(7), seed=3)
    assert rep == multitiling_check(fund_tet, sample_count=7, seed=3)
    assert rep.samples_checked == 7


def test_report_to_dict():
    rep = MultiTilingReport(
        is_multitiling=False,
        multiplicity=None,
        samples_checked=3,
        witnesses=((("1/10007", "2/10007", "3/10007"), 6),),
        expected=8,
    )
    d = rep.to_dict()
    assert d["witnesses"] == [
        {"point": ["1/10007", "2/10007", "3/10007"], "count": 6}
    ]
    assert d["expected"] == 8 and d["samples_checked"] == 3


def test_canonical_form_pins():
    assert canonical_form(FUND_TET) == FT_CANONICAL
    assert canonical_form(SECOND_TILE_TET) == SECOND_CANONICAL
    assert FT_CANONICAL != SECOND_CANONICAL


def test_canonical_form_exact_far_from_the_origin():
    # coordinates beyond int64: the form must come from exact Python ints
    shift = (2**70, -(2**70), 3)
    far = [tuple(c + s for c, s in zip(p, shift)) for p in FUND_TET]
    assert canonical_form(far) == FT_CANONICAL


def test_canonical_form_idempotent():
    for pts in (FUND_TET, SECOND_TILE_TET):
        c = canonical_form(pts)
        assert canonical_form(c) == c


def test_canonical_form_invariant_under_group():
    rng = random.Random(17)
    elems = weyl_elements(3)
    for pts in (FUND_TET, SECOND_TILE_TET):
        base = canonical_form(pts)
        for _ in range(25):
            w = rng.choice(elems)
            lam = tuple(rng.randint(-4, 4) for _ in range(3))
            moved = (np.array(pts) @ w.T + lam).tolist()
            rng.shuffle(moved)
            assert canonical_form(moved) == base


def test_canonical_form_separates_reflection_only_when_group_does():
    # the group contains -1, so a simplex and its mirror image agree
    mirrored = [tuple(-c for c in p) for p in FUND_TET]
    assert canonical_form(mirrored) == canonical_form(FUND_TET)


def test_canonical_form_integer_only():
    with pytest.raises(MalformedInput):
        canonical_form([("1/2", "0", "0"), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_canonical_form_refuses_empty_and_mixed_points():
    with pytest.raises(DegenerateInput):
        canonical_form([])
    with pytest.raises(DimensionMismatch):
        canonical_form([(0, 0, 0), (1, 0)])
