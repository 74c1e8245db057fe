"""Normalized solid angles of polytope faces.

All angles are fractions of the full sphere (or full circle in the plane),
so an interior point has angle 1, a facet point 1/2, and a vertex of the
positive octant cone 1/8.  Exact rational data goes in; a single float
comes out, computed through one atan2 per simplicial cone, which keeps the
values well inside 1e-12 of truth for the coordinate sizes used here.
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
    classify_point,
    cycle_order,
    det3,
)

TWO_PI = 2.0 * math.pi


def _cone_angle(
    a: Sequence[Rational], b: Sequence[Rational], c: Sequence[Rational]
) -> float:
    """Solid angle of the cone spanned by three independent vectors at the
    origin, each any exact 3-sequence (a coordinate tuple or a
    RationalVector).  With la, lb, lc the generator lengths,

        tan(2 pi w) = |det(a,b,c)| / (la lb lc + (b.c) la + (c.a) lb + (a.b) lc)

    evaluated through atan2 so obtuse cones (negative denominator) land on
    the correct branch; the result lies in (0, 1/2)."""
    det = det3(a, b, c)
    if det == 0:
        raise DegenerateCone("cone generators are linearly dependent")
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0, c1, c2 = c
    la = math.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
    lb = math.sqrt(b0 * b0 + b1 * b1 + b2 * b2)
    lc = math.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    denom = (
        la * lb * lc
        + float(b0 * c0 + b1 * c1 + b2 * c2) * la
        + float(c0 * a0 + c1 * a1 + c2 * a2) * lb
        + float(a0 * b0 + a1 * b1 + a2 * b2) * lc
    )
    return math.atan2(abs(float(det)), denom) / TWO_PI


def simplicial_cone_solid_angle(
    apex: RationalVector,
    generators: Sequence[RationalVector | Sequence[Rational | str]],
) -> float:
    """Normalized solid angle at `apex` of the cone through three points.

    The generator points are translated to the apex before the arctangent
    formula is applied; passing direction vectors with apex 0 is the common
    special case."""
    if len(generators) != 3:
        raise DegenerateCone(f"need 3 generators, got {len(generators)}")
    gens = [
        (g if isinstance(g, RationalVector) else RationalVector(g)) - apex
        for g in generators
    ]
    if any(g.dim != 3 for g in gens) or apex.dim != 3:
        raise UnsupportedDimension("simplicial cones need ambient dimension 3")
    return _cone_angle(*gens)


def external_solid_angle(
    vertices: Sequence[RationalVector | Sequence[Rational | str]], i: int, j: int
) -> float:
    """External solid angle phi_ij of a tetrahedron: the angle of the cone at
    v_i generated by v_i - v_j together with the two edges from v_i to the
    remaining vertices."""
    if i == j:
        raise DegenerateCone("external angle needs distinct vertex indices")
    pts = [p if isinstance(p, RationalVector) else RationalVector(p) for p in vertices]
    if len(pts) != 4:
        raise DegenerateTetrahedron(f"need 4 vertices, got {len(pts)}")
    k, l = (m for m in range(4) if m not in (i, j))
    return _cone_angle(pts[i] - pts[j], pts[k] - pts[i], pts[l] - pts[i])


def _planar_angle(u: RationalVector, w: RationalVector) -> float:
    cross = u[0] * w[1] - u[1] * w[0]
    if cross == 0 and u.dot(w) <= 0:
        raise DegenerateCone("planar cone generators are anti-parallel")
    return math.atan2(abs(float(cross)), float(u.dot(w))) / TWO_PI


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
    n1 = RationalVector(P.facet_normals[touching[0]])
    n2 = RationalVector(P.facet_normals[touching[1]])
    cross = n1.cross(n2)
    return 0.5 - math.atan2(math.sqrt(cross.norm_sq()), float(n1.dot(n2))) / TWO_PI


def _cyclic_edge_directions(P: Polytope, vid: int) -> list[RationalVector]:
    """Directions of the edges leaving vertex vid, in cyclic order around the
    vertex cone.  Two edges are neighbours when they share a facet."""
    edge_faces = [f for f in P.faces if f.dim == 1 and vid in f.vertex_ids]
    dirs = []
    for f in edge_faces:
        other = f.vertex_ids[1] if f.vertex_ids[0] == vid else f.vertex_ids[0]
        dirs.append(P.vertices[other] - P.vertices[vid])
    k = len(dirs)
    if k == 3:
        return dirs
    pairs = []
    for vs in P.facet_vertex_ids:
        if vid not in vs:
            continue
        members = [
            i for i, f in enumerate(edge_faces) if set(f.vertex_ids) <= vs
        ]
        if len(members) != 2:
            raise AssertionError(
                f"facet holds {len(members)} edges at vertex {vid}, expected 2"
            )
        pairs.append(members)
    return [dirs[i] for i in cycle_order(range(k), pairs)]


def _vertex_angle(P: Polytope, vid: int) -> float:
    if P.dim == 1:
        return 0.5
    if P.dim == 2:
        nbrs = []
        for vs in P.facet_vertex_ids:
            if vid in vs:
                (other,) = set(vs) - {vid}
                nbrs.append(other)
        if len(nbrs) != 2:
            raise AssertionError(f"vertex {vid} lies on {len(nbrs)} polygon edges")
        u = P.vertices[nbrs[0]] - P.vertices[vid]
        w = P.vertices[nbrs[1]] - P.vertices[vid]
        return _planar_angle(u, w)
    dirs = _cyclic_edge_directions(P, vid)
    # Fan the vertex cone over its first extreme ray; the pieces are
    # simplicial and interior-disjoint, so the angles add.
    total = 0.0
    for j in range(1, len(dirs) - 1):
        total += _cone_angle(dirs[0], dirs[j], dirs[j + 1])
    return total


def face_angle(P: Polytope, face_id: int) -> float:
    """Normalized solid angle of P at any point in the relative interior of
    the given face.  Cached per polytope; dilates share the cache."""
    hit = P._angle_cache.get(face_id)
    if hit is not None:
        return hit
    face = P.faces[face_id]
    if face.dim == P.dim:
        value = 1.0
    elif face.dim == P.dim - 1:
        value = 0.5
    elif face.dim == 1:
        value = dihedral_angle(P, face_id)
    elif face.dim == 0:
        value = _vertex_angle(P, face.vertex_ids[0])
    else:
        raise AssertionError(f"face of dimension {face.dim} in a {P.dim}-polytope")
    P._angle_cache[face_id] = value
    return value


def solid_angle(P: Polytope, x: RationalVector) -> float:
    """Normalized solid angle of P at an arbitrary rational point: 0 outside,
    1 in the interior, and the face weight on the boundary."""
    face_id = classify_point(P, x)
    return 0.0 if face_id is None else face_angle(P, face_id)


@dataclass(frozen=True)
class TetrahedronAngles:
    """Angle data of a tetrahedron with vertices v0..v3.

    solid[i] is the solid angle at v_i; dihedral[(i, j)] (i < j) the
    normalized dihedral angle along edge ij; external[(i, j)] (ordered,
    i != j) the solid angle of the cone at v_i generated by v_i - v_j and
    the two other edge directions; sq_lengths[(i, j)] the squared edge
    length |v_i - v_j|^2.
    """

    vertices: tuple[RationalVector, ...]
    solid: tuple[float, float, float, float]
    dihedral: dict[tuple[int, int], float]
    external: dict[tuple[int, int], float]
    sq_lengths: dict[tuple[int, int], Rational]
    volume: Fraction

    def gram_residuals(self) -> list[float]:
        """|w_i - (1/2) sum_j w_ij + 1/4| for each vertex."""
        out = []
        for i in range(4):
            s = sum(
                self.dihedral[tuple(sorted((i, j)))] for j in range(4) if j != i
            )
            out.append(abs(self.solid[i] - 0.5 * s + 0.25))
        return out

    def external_residuals(self) -> dict[tuple[int, int], float]:
        """|w_ij - (w_i + phi_ij)| over all ordered pairs."""
        out = {}
        for (i, j), phi in self.external.items():
            w = self.dihedral[tuple(sorted((i, j)))]
            out[(i, j)] = abs(w - (self.solid[i] + phi))
        return out


def tetrahedron_angles(
    points: Sequence[RationalVector | Sequence[Rational | str]]
) -> TetrahedronAngles:
    """All angle data of the tetrahedron on four affinely independent points.

    Works straight from the vertex vectors.  Dihedral angles come from the
    identity (u x p) x (u x q) = det(u, p, q) u for the two face planes
    through edge direction u, giving

        w_ij = atan2(|det| |u|, (u x p).(u x q)) / 2 pi.
    """
    if len(points) != 4:
        raise DegenerateTetrahedron(f"need 4 points, got {len(points)}")
    pts = [p if isinstance(p, RationalVector) else RationalVector(p) for p in points]
    if any(p.dim != 3 for p in pts):
        raise UnsupportedDimension("tetrahedron vertices must be 3-dimensional")
    # edge[i][j] = v_j - v_i as a coordinate tuple
    edge = [
        [(q[0] - p[0], q[1] - p[1], q[2] - p[2]) for q in pts] for p in pts
    ]
    det = det3(edge[0][1], edge[0][2], edge[0][3])
    if det == 0:
        raise DegenerateTetrahedron("zero signed volume")

    solid = []
    external: dict[tuple[int, int], float] = {}
    for i in range(4):
        others = [j for j in range(4) if j != i]
        gens = [edge[i][j] for j in others]
        solid.append(_cone_angle(*gens))
        for n, j in enumerate(others):
            b, c = gens[:n] + gens[n + 1 :]
            external[(i, j)] = _cone_angle(edge[j][i], b, c)

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

    return TetrahedronAngles(
        vertices=tuple(pts),
        solid=tuple(solid),
        dihedral=dihedral,
        external=external,
        sq_lengths=sq_lengths,
        volume=Fraction(abs(det), 6),
    )
