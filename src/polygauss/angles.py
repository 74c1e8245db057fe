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
    det,
    dot,
    sub,
)

TWO_PI = 2.0 * math.pi


def dihedral_angle(P: Polytope, edge: Face | int) -> float:
    """Interior dihedral angle along an edge of a 3-polytope, as a fraction
    of the full circle.  Computed from the normals n1, n2 of the edge's two
    facets, its mask's lowest and highest bits: the angle between the
    bounding half-planes is pi minus the angle between the outward normals,
    so w = 1/2 - atan2(|n1 x n2|, n1.n2) / 2 pi, with |n1 x n2|^2 =
    |n1|^2 |n2|^2 - (n1.n2)^2 (Lagrange's identity) in exact integers."""
    if P.dim != 3:
        raise UnsupportedDimension("dihedral angles need a 3-polytope")
    face = edge if isinstance(edge, Face) else P.faces[edge]
    if face.dim != 1:
        raise NotAnEdge(f"face has dimension {face.dim}, expected 1")
    m = face.mask
    a, b = P.facet_normals[(m & -m).bit_length() - 1], P.facet_normals[m.bit_length() - 1]
    ab = dot(a, b)
    return 0.5 - math.atan2(math.sqrt(dot(a, a) * dot(b, b) - ab * ab), float(ab)) / TWO_PI


def _vertex_angle(P: Polytope, vid: int) -> float:
    edges = [e for e in P.edges() if vid in e.vertex_ids]
    if P.dim == 2:
        # numerators over q: both products are over q^2, and int true
        # division rounds each quotient once, as float() of the ratio does
        v = P.numerators[vid]
        u, w = (sub(P.numerators[k], v) for e in edges for k in e.vertex_ids if k != vid)
        cross, uw, q2 = det([u, w]), dot(u, w), P.denominator**2
        if cross == 0 and uw <= 0:
            raise DegenerateCone("planar cone generators are anti-parallel")
        return math.atan2(abs(cross) / q2, uw / q2) / TWO_PI
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
    if P.dim > 3:
        raise UnsupportedDimension(f"angles below facets need dimension 1..3, not {P.dim}")
    if face.dim == 1:
        return dihedral_angle(P, face_id)
    return _vertex_angle(P, face.vertex_ids[0])


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

        w_ij = atan2(|det| |u|, (u x p).(u x q)) / 2 pi,

    with (u x p).(u x q) = |u|^2 (p.q) - (u.p)(u.q) in exact arithmetic.

    Each solid angle is then the Gram relation w_i = (1/2) sum_j w_ij - 1/4.
    """
    if len(points) != 4:
        raise DegenerateTetrahedron(f"need 4 points, got {len(points)}")
    pts = [as_vector(p) for p in points]
    if any(p.dim != 3 for p in pts):
        raise UnsupportedDimension("tetrahedron vertices must be 3-dimensional")
    # edge[i][j] = v_j - v_i as a coordinate tuple, for the first ends i < 3
    edge = [[sub(q, p) for q in pts] for p in pts[:3]]
    signed = det(edge[0][1:])
    if signed == 0:
        raise DegenerateTetrahedron("zero signed volume")

    dihedral: dict[tuple[int, int], float] = {}
    sq_lengths: dict[tuple[int, int], Rational] = {}
    for i in range(3):
        # The Gram entries of the edges from v_i, a < b < c its other ends,
        # that its edges ij (j > i) need: each pair once, each square once,
        # 15 over the three first ends.  For u, p, q = e_j, e_k, e_l the
        # wedge product (u x p) . (u x q) is g_jj g_kl - g_jk g_jl.
        a, b, c = (m for m in range(4) if m != i)
        ea, eb, ec = edge[i][a], edge[i][b], edge[i][c]
        gab, gac, gbc = dot(ea, eb), dot(ea, ec), dot(eb, ec)
        for j, u, g_kl, g_jk_jl in ((a, ea, gbc, gab * gac), (b, eb, gac, gab * gbc), (c, ec, gab, gac * gbc)):
            if j < i:
                continue
            nsq = dot(u, u)
            m12 = nsq * g_kl - g_jk_jl
            dihedral[(i, j)] = (
                math.atan2(abs(float(signed)) * math.sqrt(nsq), float(m12)) / TWO_PI
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
        volume=Fraction(abs(signed), 6),
    )
