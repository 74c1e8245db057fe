import cmath
import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from polygauss import polysum
from polygauss.errors import (
    DegenerateInput,
    DegenerateTetrahedron,
    MalformedInput,
    VolumeNotMinimal,
)
from polygauss.gauss import quad_gauss_closed
from polygauss.geometry import RationalVector, build_polytope, dilate, translate
from polygauss.polysum import (
    closed_form_value,
    compositions,
    kappa,
    polyhedral_gauss_sum_direct,
    polyhedral_gauss_sum_folded,
    tetra_gauss_sum_formula,
)
from polygauss.weyl import weyl_elements
from tests.conftest import FUND_TET, SECOND_TILE_TET, STD_SIMPLEX, make
from tests.oracles import loop_kappa, unfolded_sum

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


def test_folded_route_matches_direct(fund_tet, std_simplex, unit_cube, unit_triangle):
    for P in (fund_tet, std_simplex, unit_cube, unit_triangle):
        for n in range(1, 7):
            a = polyhedral_gauss_sum_direct(P, n)
            b = polyhedral_gauss_sum_folded(P, n)
            assert abs(a.value - b.value) < 1e-10
            assert a.route != b.route


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
    assert closed_form_value(fund_tet, 3) == pytest.approx(
        (1j * SQ3) ** 3 / 6, abs=1e-12
    )
    assert closed_form_value(unit_cube, 4) == (2 + 2j) ** 3


def test_rejects_non_lattice_polytope():
    P = build_polytope([("0", "0"), ("1/2", "0"), ("0", "1/2")])
    with pytest.raises(MalformedInput):
        polyhedral_gauss_sum_direct(P, 1)
    with pytest.raises(MalformedInput):
        polyhedral_gauss_sum_folded(P, 1)


def test_rejects_bad_dilation(fund_tet):
    for n in (0, -2, 2.5, 2.0, True):
        for call in (
            lambda: dilate(fund_tet, n),
            lambda: polyhedral_gauss_sum_direct(fund_tet, n),
            lambda: polyhedral_gauss_sum_folded(fund_tet, n),
            lambda: tetra_gauss_sum_formula(FUND_TET, n),
            lambda: kappa(FUND_TET, n),
        ):
            with pytest.raises(MalformedInput):
                call()


def test_dilation_messages_and_numpy_integers(fund_tet):
    below_one = {
        "dilation factor must be a positive integer, got 0": lambda: dilate(fund_tet, 0),
        "dilation factor must be >= 1, got 0": lambda: polyhedral_gauss_sum_folded(fund_tet, 0),
        "modulus must be >= 1, got 0": lambda: kappa(FUND_TET, 0),
    }
    for message, call in below_one.items():
        with pytest.raises(MalformedInput) as exc:
            call()
        assert str(exc.value) == message
    for n in (np.int64(3), np.int32(3)):
        assert dilate(fund_tet, n).vertices == dilate(fund_tet, 3).vertices
        for route in (polyhedral_gauss_sum_direct, polyhedral_gauss_sum_folded):
            assert route(fund_tet, n).value == route(fund_tet, 3).value
        assert tetra_gauss_sum_formula(FUND_TET, n).value == tetra_gauss_sum_formula(FUND_TET, 3).value


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
    assert abs(polyhedral_gauss_sum_folded(far, 5).value - base) < 1e-10


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
def test_folded_equals_direct_property(P, n):
    a = polyhedral_gauss_sum_direct(P, n)
    b = polyhedral_gauss_sum_folded(P, n)
    assert abs(a.value - b.value) < 1e-10


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


@pytest.mark.parametrize(
    "name", ["fund_tet", "std_simplex", "unit_cube", "unit_triangle", "unit_interval"]
)
def test_folded_route_equals_unfolding_oracle(request, name):
    P = request.getfixturevalue(name)
    for n in (1, 2, 3, 4, 7, 10):
        assert polyhedral_gauss_sum_folded(P, n).value == unfolded_sum(P, n), n


def test_folded_point_count_is_representatives(fund_tet, unit_square):
    for P in (fund_tet, unit_square):
        for n in (1, 6, 9):
            rep = polyhedral_gauss_sum_folded(P, n)
            assert rep.point_count == math.comb(n // 2 + P.dim, P.dim)


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


@pytest.mark.parametrize(
    "route", [polyhedral_gauss_sum_direct, polyhedral_gauss_sum_folded]
)
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
    P = make([(0, 0, 0), (1, 0, K), (0, 1, 0), (0, 0, 1)])
    for n in (3, 5):
        direct = polyhedral_gauss_sum_direct(P, n).value
        assert abs(direct - polyhedral_gauss_sum_folded(P, n).value) < 1e-6, n


def test_dilate_beyond_int64_is_malformed_input():
    # only the far end of the axis the scan walks along, 2 (2^62 + 1), is
    # outside int64
    P = make([(0, 0, 0), (1, 0, 2**62 + 1), (0, 1, 0), (0, 0, 1)])
    assert polyhedral_gauss_sum_direct(P, 1).point_count == 4
    for route in (polyhedral_gauss_sum_direct, polyhedral_gauss_sum_folded):
        with pytest.raises(MalformedInput, match="exceed int64"):
            route(P, 2)
