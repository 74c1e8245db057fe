import random
from fractions import Fraction

import numpy as np
import pytest

from polygauss.errors import MalformedInput
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
    DATA,
    FUND_TET,
    OCTAHEDRON,
    SECOND_TILE_TET,
    SQUARE_PYRAMID,
    load_bundled,
    make,
)
from tests.oracles import loop_orbit_weight_sum

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


def test_orbit_count_matches_loop_oracle(far_cube):
    shapes = [polytope_from_dict(load_bundled(p.stem)) for p in sorted(DATA.glob("*.json"))]
    shapes += [make(pts) for pts in ORACLE_SHAPES] + [far_cube]
    rng = random.Random(41)
    for P in shapes:
        for _ in range(30):
            q = rng.choice([7, 12, 30, 10007])
            # numerators in [-3q, 3q): points outside the fundamental region,
            # not reduced mod q, and often on the boundary for small q
            a = [rng.randrange(-3 * q, 3 * q) for _ in range(P.dim)]
            x = RationalVector(Fraction(v, q) for v in a)
            ids = _orbit_face_ids(P, _orbit_frame(P), a, q)
            angles, hits, boundary = loop_orbit_weight_sum(P, x, indicator=False)
            assert len(ids) == hits, (P, x)
            assert bool((ids != P.full_face_id).any()) == boundary, (P, x)
            assert f_P(P, x) == pytest.approx(angles, abs=1e-12), (P, x)


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
        ids = _orbit_face_ids(Q, _orbit_frame(Q), a, q)
        angles, hits, boundary = loop_orbit_weight_sum(Q, x, indicator=False)
        assert len(ids) == hits, (Q, x)
        assert bool((ids != Q.full_face_id).any()) == boundary, (Q, x)
        assert f_P(Q, x) == pytest.approx(angles, rel=1e-14, abs=1e-12), (Q, x)


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


def test_multitiling_deterministic(fund_tet):
    a = multitiling_check(fund_tet, sample_count=25, seed=9)
    b = multitiling_check(fund_tet, sample_count=25, seed=9)
    assert a == b


def test_multitiling_bad_sample_count(fund_tet):
    with pytest.raises(MalformedInput):
        multitiling_check(fund_tet, sample_count=0)


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
