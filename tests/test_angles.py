import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from polygauss.angles import dihedral_angle, face_angle, tetrahedron_angles
from polygauss.errors import (
    DegenerateTetrahedron,
    NotAnEdge,
    UnsupportedDimension,
)
from polygauss.geometry import RationalVector, classify_point, dilate
from polygauss.classify import enumerate_minimal_tetrahedra
from tests.conftest import FUND_TET, OCTAHEDRON, SECOND_TILE_TET, SQUARE_PYRAMID, make
from tests.oracles import vector_cone_angle, vector_tetrahedron_angles, vsub

ORIGIN = RationalVector((0, 0, 0))


def cone_angle(apex, generators) -> float:
    """Solid angle at `apex` of the cone through three points, read off the
    tetrahedron they span with it."""
    return tetrahedron_angles([apex, *generators]).solid[0]


def test_octant_is_exactly_one_eighth():
    got = cone_angle(ORIGIN, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert got == 0.125


def test_obtuse_wedge():
    # 135 degree wedge in the xz-plane crossed with the ray y >= 0:
    # (3/8) * (1/2) of the sphere
    got = cone_angle(ORIGIN, [(1, 0, 0), (-1, 0, 1), (0, 1, 0)])
    assert got == pytest.approx(3 / 16, abs=1e-15)


def _monte_carlo_cone(generators, n_samples=200_000, seed=7):
    """Fraction of uniformly random directions lying in the cone, plus the
    binomial standard error.  Solves for barycentric cone coordinates."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_samples, 3))
    M = np.array(generators, dtype=float).T
    coeffs = np.linalg.solve(M, dirs.T).T
    inside = np.all(coeffs >= 0.0, axis=1)
    p = inside.mean()
    se = math.sqrt(max(p * (1 - p), 1e-12) / n_samples)
    return p, se


@pytest.mark.parametrize(
    "gens",
    [
        [(1, 0, 0), (1, 1, 0), (1, 1, 1)],
        [(1, 0, 0), (0, 1, 0), (-1, -1, 1)],
        [(2, 1, 0), (0, 3, 1), (1, -1, 4)],
    ],
)
def test_cone_angle_against_monte_carlo(gens):
    exact = cone_angle(ORIGIN, gens)
    est, se = _monte_carlo_cone(gens)
    assert abs(est - exact) < 3 * se + 1e-4


def test_cone_angle_translation_invariant():
    apex = (3, -2, 5)
    shifted = [tuple(map(sum, zip(g, apex))) for g in ((1, 0, 0), (1, 1, 0), (1, 1, 1))]
    assert cone_angle(apex, shifted) == pytest.approx(
        cone_angle(ORIGIN, [(1, 0, 0), (1, 1, 0), (1, 1, 1)]),
        abs=1e-15,
    )


def test_cone_errors():
    with pytest.raises(DegenerateTetrahedron):
        cone_angle(ORIGIN, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(DegenerateTetrahedron):
        cone_angle(ORIGIN, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(UnsupportedDimension):
        cone_angle(RationalVector((0, 0)), [(1, 0), (0, 1), (1, 1)])


def test_reference_tetrahedron_angle_table():
    T = tetrahedron_angles(FUND_TET)
    assert type(T.volume) is Fraction and T.volume == Fraction(1, 6)
    expect_dihedral = {
        (0, 1): 0.125,
        (0, 2): 0.25,
        (0, 3): 1 / 6,
        (1, 2): 0.25,
        (1, 3): 0.25,
        (2, 3): 0.125,
    }
    for key, val in expect_dihedral.items():
        assert T.dihedral[key] == pytest.approx(val, abs=1e-12)
    expect_solid = (1 / 48, 1 / 16, 1 / 16, 1 / 48)
    for got, val in zip(T.solid, expect_solid):
        assert got == pytest.approx(val, abs=1e-12)
    assert sum(T.solid) == pytest.approx(1 / 6, abs=1e-12)
    assert sum(T.dihedral.values()) == pytest.approx(7 / 6, abs=1e-12)
    assert T.sq_lengths == {
        (0, 1): 1,
        (0, 2): 2,
        (0, 3): 3,
        (1, 2): 1,
        (1, 3): 2,
        (2, 3): 1,
    }


def test_second_tiler_angle_table():
    T = tetrahedron_angles(SECOND_TILE_TET)
    assert T.dihedral[(0, 1)] == pytest.approx(3 / 8, abs=1e-12)
    assert T.dihedral[(0, 2)] == pytest.approx(1 / 8, abs=1e-12)
    assert T.dihedral[(0, 3)] == pytest.approx(1 / 6, abs=1e-12)
    assert T.dihedral[(2, 3)] == pytest.approx(1 / 4, abs=1e-12)
    assert T.dihedral[(1, 2)] + T.dihedral[(1, 3)] == pytest.approx(1 / 4, abs=1e-12)
    assert sorted(T.sq_lengths.values()) == [1, 1, 2, 2, 3, 6]


def test_angle_sum_identity_random_tetrahedra():
    # sum of dihedrals = 1 + sum of solids, and the solid and external
    # angles from the dihedrals agree with the arctan cone formula, checked
    # on seeded integer tetrahedra
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        pts = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(4)]
        try:
            T = tetrahedron_angles(pts)
        except DegenerateTetrahedron:
            continue
        checked += 1
        assert _cone_fields_close(T, vector_tetrahedron_angles(pts), 1e-12)
        assert sum(T.dihedral.values()) == pytest.approx(
            1 + sum(T.solid), abs=1e-9
        )


def test_external_angle_matches_table():
    # phi_ij is the cone at v_i on v_i - v_j and the two other edges
    T = tetrahedron_angles(FUND_TET)
    pts = FUND_TET
    assert len(T.external) == 12
    for (i, j), val in T.external.items():
        k, l = (m for m in range(4) if m not in (i, j))
        want = vector_cone_angle(
            vsub(pts[i], pts[j]), vsub(pts[k], pts[i]), vsub(pts[l], pts[i])
        )
        assert val == pytest.approx(want, abs=1e-15)


def test_degenerate_tetrahedron_rejected():
    with pytest.raises(DegenerateTetrahedron):
        tetrahedron_angles([(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0)])
    with pytest.raises(DegenerateTetrahedron):
        tetrahedron_angles([(0, 0, 0), (1, 0, 0), (0, 1, 0)])


def test_face_angles_cube(unit_cube):
    by_dim = {}
    for i, f in enumerate(unit_cube.faces):
        by_dim.setdefault(f.dim, face_angle(unit_cube, i))
    assert by_dim == {0: 0.125, 1: 0.25, 2: 0.5, 3: 1.0}


def test_face_angles_triangle(unit_triangle):
    vals = sorted(
        face_angle(unit_triangle, i)
        for i, f in enumerate(unit_triangle.faces)
        if f.dim == 0
    )
    assert vals == pytest.approx([0.125, 0.125, 0.25], abs=1e-12)


def test_face_angles_interval(unit_interval):
    vals = [
        face_angle(unit_interval, i)
        for i, f in enumerate(unit_interval.faces)
        if f.dim == 0
    ]
    assert vals == [0.5, 0.5]


def test_dihedral_angle_requires_edge(unit_cube):
    vertex_id = next(i for i, f in enumerate(unit_cube.faces) if f.dim == 0)
    with pytest.raises(NotAnEdge):
        dihedral_angle(unit_cube, vertex_id)
    edge = unit_cube.edges()[0]
    assert dihedral_angle(unit_cube, edge) == pytest.approx(0.25, abs=1e-15)


def test_solid_angle_of_point(fund_tet):
    def at(x):
        face_id = classify_point(fund_tet, RationalVector(x))
        return 0.0 if face_id is None else face_angle(fund_tet, face_id)

    assert at(("1/2", "1/4", "1/8")) == 1.0
    assert at((5, 5, 5)) == 0.0
    assert at((0, 0, 0)) == pytest.approx(1 / 48, abs=1e-12)


def _vertex_angles(P) -> dict[tuple, float]:
    return {
        tuple(P.vertices[f.vertex_ids[0]]): face_angle(P, i)
        for i, f in enumerate(P.faces)
        if f.dim == 0
    }


def _fan(apex, ring) -> float:
    """The arctan oracle summed over a fan of the cone at `apex` whose
    extreme rays run through the points of `ring`, in cyclic order."""
    dirs = [vsub(p, apex) for p in ring]
    return sum(
        vector_cone_angle(dirs[0], dirs[j], dirs[j + 1]) for j in range(1, len(dirs) - 1)
    )


def test_octahedron_vertices_on_four_facets():
    got = _vertex_angles(make(OCTAHEDRON))
    assert len(got) == 6
    for v, w in got.items():
        assert w == pytest.approx(math.asin(1 / 3) / math.pi, abs=1e-15)
        a = next(i for i in range(3) if v[i])
        b, c = (i for i in range(3) if i != a)
        ring = [
            tuple(s * (i == axis) for i in range(3))
            for axis, s in ((b, 1), (c, 1), (b, -1), (c, -1))
        ]
        assert w == pytest.approx(_fan(v, ring), abs=1e-15)


def test_square_pyramid_apex_and_base_corners():
    got = _vertex_angles(make(SQUARE_PYRAMID))
    base = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)]
    apex = (1, 1, 1)
    assert got[apex] == pytest.approx(1 / 6, abs=1e-15)
    assert got[apex] == pytest.approx(_fan(apex, base), abs=1e-15)
    for n, corner in enumerate(base):
        assert got[corner] == pytest.approx(1 / 24, abs=1e-15)
        ring = [base[n - 1], base[(n + 1) % 4], apex]
        assert got[corner] == pytest.approx(_fan(corner, ring), abs=1e-15)


CONE_FIELDS = ("solid", "external")


def _same_fields(got, want):
    """Every field but the cone angles is repr-identical to the oracle's."""
    return all(
        repr(getattr(got, f.name)) == repr(getattr(want, f.name))
        for f in dataclasses.fields(want)
        if f.name not in CONE_FIELDS
    )


def _cone_fields_close(got, want, tol):
    """The solid and external angles, from the dihedrals by the Gram
    relation, agree with the arctan cone formula of the oracle within tol."""
    assert got.external.keys() == want.external.keys()
    pairs = list(zip(got.solid, want.solid))
    pairs += [(got.external[k], want.external[k]) for k in want.external]
    return max(abs(a - b) for a, b in pairs) < tol


def test_tetrahedron_angles_match_vector_oracle_on_bound_two_orbits():
    reps = list(enumerate_minimal_tetrahedra(2))
    assert len(reps) == 330
    for rep in reps:
        got, want = tetrahedron_angles(rep), vector_tetrahedron_angles(rep)
        assert _same_fields(got, want)
        assert _cone_fields_close(got, want, 1e-12)


@pytest.mark.parametrize(
    "points",
    [
        [("1/2", 0, 0), (0, "1/3", 0), (0, 0, "1/5"), ("-3/2", "7/4", "2/3")],
        [(0, 0, 0), ("3/2", "1/2", 0), ("1/2", "3/2", 0), ("1/2", "1/2", "5/2")],
        [("-1/7", 2, "3/7"), (1, "-5/3", 0), ("9/2", 1, -1), (0, "1/6", "11/6")],
    ],
)
def test_tetrahedron_angles_match_vector_oracle_on_fractions(points):
    pts = [RationalVector(p) for p in points]
    got, want = tetrahedron_angles(pts), vector_tetrahedron_angles(pts)
    assert _same_fields(got, want)
    assert _cone_fields_close(got, want, 1e-12)


def test_face_angle_of_a_dilate_does_not_depend_on_earlier_calls():
    # dilates shared P's angle memo, so the weight of the p/q triangle's
    # 97-fold dilate at vertex 0 was P's own when P's ran first, one ulp off
    points = [("-6/7", 6), ("-1/2", "-4/3"), (9, "-8/7")]
    fresh = face_angle(dilate(make(points), 97), 0)
    P = make(points)
    face_angle(P, 0)
    assert face_angle(dilate(P, 97), 0) == fresh == 0.1424536712764224
