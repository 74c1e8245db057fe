"""Normalized solid angles of polytope faces.

All angles are fractions of the full sphere (or full circle in the plane),
so an interior point has angle 1, a facet point 1/2, and a vertex of the
positive octant cone 1/8.

The only angle primitive in three dimensions is the dihedral angle of an
edge, one atan2 of two exactly computed integer (or rational) arguments.  A
vertex weight follows from its edges by Girard's relation
w_v = (1/2) sum_e w_e - (k - 2)/4 over the k edges at v (for a simplicial
vertex this is the Gram relation).  So every weight is a rational
combination of atan2 values of exact arguments, and its absolute error is a
few ulp whatever the shape, needle-like or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DegenerateCone,
    DegenerateTetrahedron,
    NotAnEdge,
    UnsupportedDimension,
)
from .geometry import (
    Face,
    Polytope,
    Rational,
    RationalVector,
    as_vector,
    det3,
)

TWO_PI = 2.0 * math.pi


def dihedral_angle(P: Polytope, edge: Face | int) -> float:
    """Interior dihedral angle along an edge of a 3-polytope, as a fraction
    of the full circle.  Computed from the two facet normals n1, n2: the
    angle between the bounding half-planes is pi minus the angle between the
    outward normals, so w = 1/2 - atan2(|n1 x n2|, n1.n2) / 2 pi."""
    if P.dim != 3:
        raise UnsupportedDimension("dihedral angles need a 3-polytope")
    face = edge if isinstance(edge, Face) else P.faces[edge]
    if face.dim != 1:
        raise NotAnEdge(f"face has dimension {face.dim}, expected 1")
    touching = [i for i in range(P.n_facets) if face.mask >> i & 1]
    if len(touching) != 2:
        raise AssertionError(f"edge lies on {len(touching)} facets")
    (a0, a1, a2), (b0, b1, b2) = (P.facet_normals[k] for k in touching)
    cross = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    dot = a0 * b0 + a1 * b1 + a2 * b2
    return 0.5 - math.atan2(math.sqrt(sum(c * c for c in cross)), float(dot)) / TWO_PI


def _vertex_angle(P: Polytope, vid: int) -> float:
    edges = [e for e in P.edges() if vid in e.vertex_ids]
    if P.dim == 2:
        # numerators over q: both products are over q^2, and int true
        # division rounds each quotient once, as float() of the ratio does
        v = P.numerators[vid]
        (u0, u1), (w0, w1) = (
            (a - v[0], b - v[1])
            for e in edges
            for a, b in (P.numerators[k] for k in e.vertex_ids if k != vid)
        )
        cross, dot, q2 = u0 * w1 - u1 * w0, u0 * w0 + u1 * w1, P.denominator**2
        if cross == 0 and dot <= 0:
            raise DegenerateCone("planar cone generators are anti-parallel")
        return math.atan2(abs(cross) / q2, dot / q2) / TWO_PI
    # Girard: a vertex cone with k facets, hence k edges, has angle
    # (1/2) sum_e w_e - (k - 2)/4 over the dihedral angles w_e of its edges.
    return 0.5 * math.fsum(dihedral_angle(P, e) for e in edges) - (len(edges) - 2) / 4


def face_angle(P: Polytope, face_id: int) -> float:
    """Normalized solid angle of P at any point in the relative interior of
    the given face."""
    face = P.faces[face_id]
    if face.dim == P.dim:
        return 1.0
    if face.dim == P.dim - 1:
        return 0.5
    if face.dim == 1:
        return dihedral_angle(P, face_id)
    if face.dim == 0:
        return _vertex_angle(P, face.vertex_ids[0])
    raise AssertionError(f"face of dimension {face.dim} in a {P.dim}-polytope")


@dataclass(frozen=True)
class TetrahedronAngles:
    """Angle data of a tetrahedron with vertices v0..v3.

    solid[i] is the solid angle at v_i; dihedral[(i, j)] (i < j) the
    normalized dihedral angle along edge ij; external[(i, j)] (ordered,
    i != j) the solid angle of the cone at v_i generated by v_i - v_j and
    the two other edge directions, which fills the dihedral wedge of edge
    ij together with the vertex cone, so it is w_ij - w_i; sq_lengths[(i, j)]
    the squared edge length |v_i - v_j|^2.
    """

    vertices: tuple[RationalVector, ...]
    solid: tuple[float, float, float, float]
    dihedral: dict[tuple[int, int], float]
    external: dict[tuple[int, int], float]
    sq_lengths: dict[tuple[int, int], Rational]
    volume: Fraction


def tetrahedron_angles(
    points: Sequence[RationalVector | Sequence[Rational | str]]
) -> TetrahedronAngles:
    """All angle data of the tetrahedron on four affinely independent points.

    Works straight from the vertex vectors.  Dihedral angles come from the
    identity (u x p) x (u x q) = det(u, p, q) u for the two face planes
    through edge direction u, giving

        w_ij = atan2(|det| |u|, (u x p).(u x q)) / 2 pi.

    Each solid angle is then the Gram relation w_i = (1/2) sum_j w_ij - 1/4.
    """
    if len(points) != 4:
        raise DegenerateTetrahedron(f"need 4 points, got {len(points)}")
    pts = [as_vector(p) for p in points]
    if any(p.dim != 3 for p in pts):
        raise UnsupportedDimension("tetrahedron vertices must be 3-dimensional")
    # edge[i][j] = v_j - v_i as a coordinate tuple
    edge = [
        [(q[0] - p[0], q[1] - p[1], q[2] - p[2]) for q in pts] for p in pts
    ]
    det = det3(edge[0][1], edge[0][2], edge[0][3])
    if det == 0:
        raise DegenerateTetrahedron("zero signed volume")

    dihedral: dict[tuple[int, int], float] = {}
    sq_lengths: dict[tuple[int, int], Rational] = {}
    for i in range(4):
        for j in range(i + 1, 4):
            k, l = (m for m in range(4) if m not in (i, j))
            u0, u1, u2 = edge[i][j]
            p0, p1, p2 = edge[i][k]
            q0, q1, q2 = edge[i][l]
            # (u x p) . (u x q), expanded
            m12 = (
                (u1 * p2 - u2 * p1) * (u1 * q2 - u2 * q1)
                + (u2 * p0 - u0 * p2) * (u2 * q0 - u0 * q2)
                + (u0 * p1 - u1 * p0) * (u0 * q1 - u1 * q0)
            )
            nsq = u0 * u0 + u1 * u1 + u2 * u2
            dihedral[(i, j)] = (
                math.atan2(abs(float(det)) * math.sqrt(nsq), float(m12)) / TWO_PI
            )
            sq_lengths[(i, j)] = int(nsq) if nsq.denominator == 1 else nsq

    pairs = [[(i, j) for j in range(4) if j != i] for i in range(4)]
    solid = [0.5 * math.fsum(dihedral[tuple(sorted(p))] for p in ps) - 0.25 for ps in pairs]
    external = {p: dihedral[tuple(sorted(p))] - solid[p[0]] for ps in pairs for p in ps}

    return TetrahedronAngles(
        vertices=tuple(pts),
        solid=tuple(solid),
        dihedral=dihedral,
        external=external,
        sq_lengths=sq_lengths,
        volume=Fraction(abs(det), 6),
    )
