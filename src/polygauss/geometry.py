"""Exact geometry for rational convex polytopes in ambient dimension 1, 2, or 3.

Polytopes are stored in both representations at once: an exact vertex list
and a facet system of primitive integer normals with integer bounds.  All
membership and face-classification queries are exact integer arithmetic;
floating point only ever enters downstream (angles, phases).

Exact data has one representation: int vertex numerators over one positive
denominator q, with gcd(q, every numerator) = 1, and facets N x <= b / q
with int N and b.  build_polytope clears the input's denominators once, so
hulls, dilates, translates, volumes and angles run on ints.  A lattice
polytope has q = 1, and the lattice points of any P satisfy N x <= b // q.
Fraction appears only at the boundary: in RationalVector, the exact point
type callers pass in (an int when integral, else a Fraction), and in the
vertices, bounding box and volume a polytope reports.

The face lattice is explicit.  Every face carries the vertex indices lying
on it and the bitmask of the facets containing it; a face is the
intersection of those facets, so no two faces share a mask and the full
face's is 0.  A point in P lies in the relative interior of the face whose
mask is the set of facets the point is tight on, and one table built with
the lattice, Polytope.mask_table, turns such masks into face ids (from a
point, a lattice line's ends or a batch of orbit points); volume pulls P
into simplices along the same lattice.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    MalformedInput,
    UnsupportedDimension,
)

Rational = int | Fraction

_MAX_FACETS_FOR_BITMASK = 62  # tight-set bitmasks live in a signed int64

# Most lattice points, (lattice line, facet) pairs, kappa terms or search
# candidates one request may enumerate; larger requests raise
# MalformedInput.  A search candidate takes 6 bytes while it is enumerated
# and then 20 (int8 vertices and an int64 key).  A G_P(n) request, for one n
# or for several read off one dilate lcm(ns) P, holds its lattice lines and
# at most polysum._LINE_PATH_POINTS = 2^13 points, or one run of about
# polysum._COUNT_CHUNK line ends, at a time; several n share a dilate only
# where Blichfeldt's bound (at most d! vol + d lattice points) holds it to
# 2^13 points before it is scanned.  kappa holds one triangle of
# C(n - 1, 2) parts, so the point and term budgets bound its time, not its
# memory.  The line stage holds, per head under P's shadow, 4 bytes for its
# row and 8 (d + 4) for the line it may carry (head, first coordinate,
# count and three faces), and one chunk's facet rooms.  There
# are at most as many such heads as lines of the bounding box, so at most
# POINT_BUDGET / facets, and a d-polytope has at least d + 1 facets: under
# 255 MB in 3-d and 295 MB in 2-d.  fund_tet at n = 256 has 2,862,209
# points on 33,153 lines, one per head under its shadow.
POINT_BUDGET = 1 << 24
_SCAN_CHUNK = 1 << 14  # heads whose facet rooms lattice_lines holds at once


def _exact(c: Rational | str) -> Rational:
    """A coordinate in normal form: a built-in int when integral (numpy
    integers included), otherwise a Fraction."""
    if isinstance(c, numbers.Integral):
        return int(c)
    f = c if type(c) is Fraction else Fraction(c)
    return int(f) if f.denominator == 1 else f


class RationalVector:
    """Immutable point with exact rational coordinates, each an int when
    integral and a Fraction otherwise: the point type of build_polytope,
    translate, classify_point and weyl.f_P, and of Polytope.vertices."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Rational | str]) -> None:
        self.coords: tuple[Rational, ...] = tuple(
            c if type(c) is int else _exact(c) for c in coords
        )

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> Rational:
        return self.coords[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalVector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "rvec(" + ", ".join(str(c) for c in self.coords) + ")"


def rvec(*coords: Rational | str) -> RationalVector:
    """Shorthand constructor: rvec(1, '1/2', 0)."""
    return RationalVector(coords)


def as_vector(p: RationalVector | Sequence[Rational | str]) -> RationalVector:
    """p itself if it is a RationalVector, else its exact coordinates as one."""
    return p if isinstance(p, RationalVector) else RationalVector(p)


def independent_rows(rows: Sequence[Sequence[Rational]]) -> list[int]:
    """Indices of a maximal linearly independent subset, by Gaussian elimination.

    Scans rows in order and keeps each row that is not in the span of the
    rows kept so far, so the result is the greedy (lexicographically first)
    basis.  Elimination is fraction-free (r <- b[p] r - r[p] b), which
    scales rows without changing their span, so integer rows stay integer.
    """
    basis: list[tuple[int, Sequence[Rational]]] = []  # (pivot, row)
    picked: list[int] = []
    for idx, r in enumerate(rows):
        for p, b in basis:
            e = r[p]
            if e:
                r = [b[p] * x - e * y for x, y in zip(r, b)]
        for p, x in enumerate(r):
            if x:
                basis.append((p, r))
                picked.append(idx)
                break
    return picked


def det3(a, b, c):
    """Determinant of the 3x3 matrix with rows a, b, c, each a sequence of
    three coordinates.  Exact coordinates (int tuples, RationalVectors) give
    an exact int or Fraction; rows of three numpy arrays give an array of
    determinants."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0, c1, c2 = c
    return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)


def integer_points(points: Sequence, error: str) -> list[tuple[int, ...]]:
    """Coordinates of lattice points as int tuples; raises MalformedInput
    with the given message when any coordinate is not integral."""
    pts = [tuple(c if type(c) is int else _exact(c) for c in p) for p in points]
    if any(type(c) is not int for p in pts for c in p):
        raise MalformedInput(error)
    return pts


def _sub(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(operator.sub, a, b))


def _dot(a: Sequence[Rational], b: Sequence[Rational]) -> Rational:
    return sum(map(operator.mul, a, b))


def affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of a non-empty set of integer points."""
    return len(independent_rows([_sub(p, points[0]) for p in points[1:]]))


def _cleared(rows: Sequence[Sequence[Rational]], q: int = 1) -> tuple[list[tuple[int, ...]], int]:
    """Rows of exact coordinates as int numerators over one denominator,
    the least common multiple of q and the coordinates' denominators."""
    q = math.lcm(q, *(c.denominator for row in rows for c in row))
    return [tuple(c.numerator * (q // c.denominator) for c in row) for row in rows], q


def _lowest_terms(
    numerators: Sequence[tuple[int, ...]], q: int, bounds: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
    """Vertex numerators, their denominator and the facet bounds, divided by
    gcd(q, every numerator), which divides every bound: each facet holds a
    vertex."""
    g = math.gcd(q, *itertools.chain(*numerators))
    V = tuple(tuple(c // g for c in v) for v in numerators)
    return V, q // g, tuple(b // g for b in bounds)


@dataclass(frozen=True)
class Face:
    """A face of the lattice: its dimension, the vertices on it and the
    bitmask of the facets containing it."""

    dim: int
    vertex_ids: tuple[int, ...]
    mask: int


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex rational polytope, full-dimensional in its ambient space: a
    frozen value of its exact data and face lattice.

    The exact data is ints: the vertex numerators in lexicographic order
    over one denominator q (see the module docstring), and the bound b of
    each primitive facet normal N, so P = {x : N x <= b / q}; vertices and
    bbox() give them as rationals.  The face lattice is facet_vertex_ids,
    faces and mask_table, the read-only (2, faces) array whose rows are the
    face masks in increasing order and the ids of those faces.  Dilates and
    translates share the normals and the face lattice.  Nothing computed
    from a polytope is kept on it: its volume, face angles and lattice
    lines are formed afresh on each call.
    """

    dim: int
    numerators: tuple[tuple[int, ...], ...]
    denominator: int
    facet_normals: tuple[tuple[int, ...], ...]
    facet_bounds: tuple[int, ...]
    facet_vertex_ids: tuple[frozenset[int], ...]
    faces: tuple[Face, ...]
    mask_table: np.ndarray = field(repr=False)

    @property
    def vertices(self) -> tuple[RationalVector, ...]:
        q = self.denominator
        return tuple(RationalVector(Fraction(c, q) for c in v) for v in self.numerators)

    @property
    def n_facets(self) -> int:
        return len(self.facet_normals)

    @property
    def full_face_id(self) -> int:
        """Id of P itself as a face, the last in the lattice's order."""
        return len(self.faces) - 1

    def bbox(self) -> tuple[tuple[Rational, ...], tuple[Rational, ...]]:
        q = self.denominator
        return tuple(
            RationalVector(Fraction(c, q) for c in map(f, *self.numerators)).coords
            for f in (min, max)
        )

    def edges(self) -> list[Face]:
        return [f for f in self.faces if f.dim == 1]

    def __repr__(self) -> str:
        return (
            f"Polytope(dim={self.dim}, vertices={len(self.numerators)}, "
            f"facets={self.n_facets})"
        )


def _facet_planes(dim: int, points: list[tuple[int, ...]]) -> dict[tuple[tuple[int, ...], int], int]:
    """All supporting hyperplanes N x = b spanned by d-subsets of the
    integer points, N primitive and oriented so the points satisfy
    N x <= b, each with the bitmask of the points on it."""
    planes: dict[tuple[tuple[int, ...], int], int] = {}
    for subset in itertools.combinations(points, dim):
        u = [_sub(p, subset[0]) for p in subset[1:]]
        if dim == 1:
            normal = (1,)
        elif dim == 2:
            normal = (u[0][1], -u[0][0])
        else:
            (a0, a1, a2), (b0, b1, b2) = u
            normal = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        g = math.gcd(*normal)
        if not g:
            continue
        normal = tuple(a // g for a in normal)
        offset = _dot(normal, subset[0])
        levels = [_dot(normal, p) for p in points]
        low, high = min(levels), max(levels)
        if low < offset < high:
            continue  # cuts through the point set, not supporting
        on = sum(1 << i for i, h in enumerate(levels) if h == offset)
        if high > offset:
            normal, offset = tuple(-a for a in normal), -offset
        planes[(normal, offset)] = on
    return planes


def _build_face_lattice(
    dim: int,
    vertices: Sequence[tuple[int, ...]],
    facet_vertex_ids: tuple[frozenset[int], ...],
    through: Sequence[int],
) -> tuple[tuple[Face, ...], np.ndarray]:
    """Faces in order of dimension, then vertex ids, so P itself comes last,
    and the mask table over them (see Polytope).  through[i] is the mask of
    the facets through vertex i, and a face's mask the AND of its
    vertices'."""
    face_sets = {frozenset([i]): 0 for i in range(len(vertices))}
    for vs in facet_vertex_ids:
        face_sets.setdefault(vs, dim - 1)
    if dim == 3:  # an edge is where two facets share two vertices
        for shared in (a & b for a, b in itertools.combinations(facet_vertex_ids, 2)):
            if len(shared) == 2:
                face_sets.setdefault(shared, 1)
    face_sets[frozenset(range(len(vertices)))] = dim

    faces: list[Face] = []
    for fdim, ids in sorted((fdim, tuple(sorted(vs))) for vs, fdim in face_sets.items()):
        rank = affine_rank([vertices[i] for i in ids])
        if rank != fdim:
            raise AssertionError(
                f"face on vertices {ids} has affine rank {rank}, expected {fdim}"
            )
        faces.append(Face(fdim, ids, functools.reduce(operator.and_, map(through.__getitem__, ids))))
    masks = [f.mask for f in faces]
    if len(set(masks)) != len(faces):
        raise AssertionError("two faces lie on the same facets")
    order = sorted(range(len(faces)), key=masks.__getitem__)
    # Masks of more facets overflow int64; such a polytope is only ever
    # located one point at a time (classify_point), on Python ints.
    wide = len(facet_vertex_ids) > _MAX_FACETS_FOR_BITMASK
    table = np.array([[masks[i] for i in order], order], dtype=object if wide else np.int64)
    table.flags.writeable = False
    return tuple(faces), table


def build_polytope(points: Sequence[RationalVector | Sequence[Rational | str]]) -> Polytope:
    """Convex hull of a rational point set, as an exact Polytope.

    The points' denominators are cleared once, and the hull is found on
    their int numerators.  Facets are found by brute force over d-element
    subsets, which is entirely adequate at these sizes and trivially
    correct.  Input points that are not vertices of the hull are dropped.
    """
    rows = [as_vector(p).coords for p in points]
    if not rows:
        raise DegenerateInput("empty point set")
    dim = len(rows[0])
    if not 1 <= dim <= 3:
        raise UnsupportedDimension(f"ambient dimension {dim} not in 1..3")
    if any(len(r) != dim for r in rows):
        raise DimensionMismatch("points of mixed dimensions")
    rows, q = _cleared(rows)
    uniq = sorted(set(rows))
    if affine_rank(uniq) != dim:
        raise DegenerateInput(
            f"points span affine dimension {affine_rank(uniq)}, need {dim}"
        )

    planes, masks = zip(*sorted(_facet_planes(dim, uniq).items()))
    normals, bounds = zip(*planes)

    # through[i] masks the facets through point i.  A hull vertex is a point
    # whose tight facet normals span the full space.
    through = [sum(1 << k for k, on in enumerate(masks) if on >> i & 1) for i in range(len(uniq))]
    kept = [i for i, t in enumerate(through)
            if len(independent_rows([N for k, N in enumerate(normals) if t >> k & 1])) == dim]
    facet_vertex_ids = tuple(frozenset(j for j, i in enumerate(kept) if on >> i & 1) for on in masks)
    for N, on in zip(normals, facet_vertex_ids):
        if len(on) < dim:
            raise AssertionError(f"facet {N} carries only {len(on)} vertices")
    numerators, q, bounds = _lowest_terms([uniq[i] for i in kept], q, bounds)

    faces, table = _build_face_lattice(dim, numerators, facet_vertex_ids, [through[i] for i in kept])
    return Polytope(
        dim=dim,
        numerators=numerators,
        denominator=q,
        facet_normals=normals,
        facet_bounds=bounds,
        facet_vertex_ids=facet_vertex_ids,
        faces=faces,
        mask_table=table,
    )


def dilate(P: Polytope, n: int) -> Polytope:
    """The dilate nP for a positive integer n: with g = gcd(n, q), its
    numerators are n/g times P's over the denominator q/g."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise MalformedInput(f"dilation factor must be a positive integer, got {n}")
    if n == 1:
        return P
    g = math.gcd(n, P.denominator)
    m = operator.index(n) // g  # a built-in int, also for numpy integers
    V = tuple(tuple(m * c for c in v) for v in P.numerators)
    bounds = tuple(m * b for b in P.facet_bounds)
    return replace(P, numerators=V, denominator=P.denominator // g, facet_bounds=bounds)


def _face_ids_of_masks(P: Polytope, masks: np.ndarray) -> np.ndarray:
    """Id of the face named by each tight-facet mask, by binary search in
    P.mask_table; a mask that names no face raises AssertionError."""
    known, ids = P.mask_table
    pos = known.searchsorted(masks)
    unknown = known.take(pos, mode="clip") != masks
    if unknown.any():
        m = int(masks[unknown][0])
        tight = [i for i in range(P.n_facets) if m >> i & 1]
        raise AssertionError(f"tight set {tight} resolves to no face")
    return ids.take(pos)


def classify_point(P: Polytope, x: RationalVector | Sequence[Rational | str]) -> int | None:
    """Id of the face of P whose relative interior holds the rational point
    x, which is P.full_face_id for an interior point; None outside P."""
    x = as_vector(x)
    if x.dim != P.dim:
        raise DimensionMismatch(f"point has dimension {x.dim}, polytope {P.dim}")
    (a,), r = _cleared([x.coords])  # x = a / r, and facet k holds x iff q N_k a <= r b_k
    mask = 0
    for i, (normal, b) in enumerate(zip(P.facet_normals, P.facet_bounds)):
        s = P.denominator * _dot(normal, a) - r * b
        if s > 0:
            return None
        if s == 0:
            mask |= 1 << i
    return int(_face_ids_of_masks(P, np.array([mask], dtype=P.mask_table.dtype))[0])


def int64_array(values, what: str) -> np.ndarray:
    """Exact integers as an int64 array; MalformedInput when one does not
    fit, as on a polytope far from the origin."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise MalformedInput(
            f"{what} exceed int64; move the polytope nearer the origin"
        ) from None


def integer_facet_system(P: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """Facet system cleared of denominators: rows A, bounds c with the body
    equal to {x : A x <= c} and tightness preserved row by row.  Row k is
    q/g N_k with bound b_k/g, for the denominator q and g = gcd(q, b_k)."""
    q = P.denominator
    g = [math.gcd(q, b) for b in P.facet_bounds]
    A = [[a * (q // h) for a in N] for N, h in zip(P.facet_normals, g)]
    c = [b // h for b, h in zip(P.facet_bounds, g)]
    return int64_array(A, "facet normals"), int64_array(c, "facet bounds")


def line_points(heads: np.ndarray, lower: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Rows (h, t) for every row h of `heads` and t = lower .. lower + count - 1,
    head by head, so lexicographically ordered heads give lexicographically
    ordered rows.  Columns are filled one at a time."""
    total = int(counts.sum())
    out = np.empty((total, heads.shape[1] + 1), dtype=np.int64)
    for k in range(heads.shape[1]):
        out[:, k] = heads[:, k].repeat(counts)
    out[:, -1] = np.arange(total)
    out[:, -1] -= (counts.cumsum() - counts - lower).repeat(counts)
    return out


def _require_bitmask_facets(P: Polytope) -> None:
    if P.n_facets > _MAX_FACETS_FOR_BITMASK:
        raise UnsupportedDimension(
            f"{P.n_facets} facets exceeds the bitmask scan limit"
        )


def face_ids_of_tight(P: Polytope, tight: Iterable[np.ndarray]) -> np.ndarray:
    """Id of the face of P in whose relative interior each point lies, from
    one bool row per facet of P, true at the points tight on it; the rows
    are packed into masks one at a time, so they may come from a generator."""
    _require_bitmask_facets(P)
    masks = sum(row.astype(np.int64) << k for k, row in enumerate(tight))
    return _face_ids_of_masks(P, masks)


def check_budget(what: str, count: int, remedy: str = "use a smaller n") -> None:
    """Raise MalformedInput when a request would materialise more than
    POINT_BUDGET rows."""
    if count > POINT_BUDGET:
        raise MalformedInput(
            f"{count} {what} exceed the budget of {POINT_BUDGET}; {remedy}"
        )


def check_positive_int(n: int, what: str) -> None:
    """Raise MalformedInput unless n is an integer >= 1; numpy integers
    count, bools do not."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise MalformedInput(f"{what} must be an integer, got {n}")
    if n < 1:
        raise MalformedInput(f"{what} must be >= 1, got {n}")


def lattice_lines(P: Polytope) -> tuple[np.ndarray, ...]:
    """The non-empty lattice lines of P parallel to the last axis, in
    lexicographic order of their heads: (heads, lower, counts, faces), each
    line's head (its points' other coordinates), first last coordinate and
    number of lattice points, and the (3, lines) ids of the faces holding
    its first point, its last point and the points between.

    The lattice points of P are those of N x <= c, N the facet normals and
    c = b // q their bounds over the denominator, floored.  Only the heads
    under P's shadow are visited: in 3-d, x2 is eliminated from pairs of
    facets at the start of each call, the sides this gives bound the
    shadow on (x0, x1), and each x0 of the box gets its exact x1-interval
    from them by floor division; in 2-d and 1-d the shadow is the box.
    With a_k the last coordinate of N_k, a side is u N_k + v N_j for an up
    facet k (a_k > 0) and a down facet j (a_k < 0), u = -a_j and v = a_k,
    or N_k for a facet along the lines (a_k = 0), with the bound u c_k +
    v c_j; a side with no x1 term bounds x0 alone, as the box does, and is
    dropped.  On the line through head h, facet k leaves room
    s_k = c_k - N_k[:-1] . h for a_k x_last, so a_k > 0 bounds x_last above
    by floor(s_k / a_k) and a_k < 0 below by ceil(s_k / a_k) =
    -floor(s_k / |a_k|), dividing only where |a_k| > 1; a facet along the
    lines (a_k = 0) holds on every head under the shadow.  The point (h, t)
    is tight on facet k iff s_k = a_k t and q divides b_k, so the
    rooms also give the faces of the line's ends.  A facet with a_k != 0
    meets the line at most once, so the points between lie on the face of
    the facets tight at both ends.

    Heads are taken in chunks of _SCAN_CHUNK: their rooms are formed
    facet-major, c_k less the head's terms on row k, with no integer
    matmul, and their tight masks one end at a time in one reused
    (facets, chunk) buffer.  The lines are written into one array with a
    column per head under the shadow, so memory is O(heads + chunk x
    facets), and there are no more heads than lines of the box.  A request
    of more than POINT_BUDGET (line, facet) pairs on the bounding box
    raises MalformedInput before anything is allocated, and one of more
    than POINT_BUDGET lattice points before any point is, with faces
    formed only for the lines within that budget; so does a polytope whose
    bounding box, facet bounds or shadow bounds do not fit int64.
    """
    _require_bitmask_facets(P)
    q = P.denominator
    lo = [-(-c // q) for c in map(min, *P.numerators)]  # the box's least and greatest lattice corners
    hi = [c // q for c in map(max, *P.numerators)]
    if any(h < l for l, h in zip(lo, hi)):  # no lattice point
        empty = np.zeros(0, np.int64)
        return np.zeros((0, P.dim - 1), np.int64), empty, empty, np.zeros((3, 0), np.int64)
    pairs = math.prod([h - l + 1 for l, h in zip(lo[:-1], hi[:-1])]) * P.n_facets  # lines times facets
    check_budget("lattice line-facet pairs", pairs)
    int64_array([lo, hi], "bounding-box coordinates")  # both corners bound the lines
    # the facets up, then down, then along the lines; those with |a_k| > 1
    # last among the up facets and first among the down ones, so the
    # slice `divided` holds them all
    groups = ([], [], [], [], [])  # up with a_k = 1, up, down, down with a_k = -1, along
    for k, n in enumerate(P.facet_normals):
        a = n[-1]
        groups[(a != 1) if a > 0 else 2 + (a == -1) if a < 0 else 4].append(k)
    order = list(itertools.chain(*groups))
    N = [P.facet_normals[k] for k in order]
    c = [P.facet_bounds[k] // q for k in order]
    up = len(groups[0]) + len(groups[1])
    down = up + len(groups[2]) + len(groups[3])
    divided = slice(len(groups[0]), up + len(groups[2]))
    sides = []  # (x1 term < 0, x0 term, x1 term, k, u, j, v), those bounding x1 from above first
    if P.dim == 3:
        for k, j in itertools.product(range(up), range(up, down)):
            u, v = -N[j][2], N[k][2]
            r0, r1 = u * N[k][0] + v * N[j][0], u * N[k][1] + v * N[j][1]
            if r1:
                sides.append((r1 < 0, r0, r1, k, u, j, v))
        sides += [(n[1] < 0, n[0], n[1], k, 1, k, 0) for k, n in enumerate(N[down:], down) if n[1]]
        sides.sort()
    m = len(sides)
    sides_up = sum(1 for side in sides if not side[0])
    # the sides bounding x1 from above are raised by their x1 term, so
    # their floor quotient is one past the last x1 they allow
    bound = [u * c[k] + v * c[j] + max(r1, 0) for _, _, r1, k, u, j, v in sides] + c
    head = [side[1] for side in sides] + [n[0] if P.dim == 3 else 0 for n in N]  # x0 terms
    rise = [abs(side[2]) for side in sides]
    divide_sides = any(r > 1 for r in rise)
    x0 = (lo[0], hi[0]) if P.dim == 3 else (0, 0)  # the shadow's rows, one per x0 in 3-d
    # no room a row leaves, bound - x0 term * x0, is larger in magnitude;
    # being linear in x0, it is largest on the first or the last row
    reach = max(map(abs, bound)) + max(map(abs, head)) * max(-x0[0], x0[1])
    if reach >> 63:
        reach = max(abs(b - h * x) for b, h in zip(bound, head) for x in x0)
    bound = int64_array(bound + [reach], "facet bounds")[:-1]
    # one int64 array, read as columns: the sides' and facets' x0 terms,
    # the sides' |x1 term|, and for the facets their term along the
    # shadow's rows (0 in 1-d, which has none), a_k, bit and the |a_k| of
    # the divided ones
    columns = (
        head,
        rise,
        [n[-2] if P.dim > 1 else 0 for n in N],
        [n[-1] for n in N],
        [1 << k for k in order],
        [abs(n[-1]) for n in N[divided]],
    )
    flat = np.array(list(itertools.chain(*columns)), dtype=np.int64)
    ends = list(itertools.accumulate(map(len, columns), initial=0))
    head, rise, inner, a, bits, divisor = (flat[s:e, None] for s, e in zip(ends, ends[1:]))
    bits = bits[:, 0]
    room = bound[:, None] - head * np.arange(x0[0], x0[1] + 1)  # (sides, then facets) x rows
    shadow, base = room[:m], room[m:]
    if divide_sides:
        shadow //= rise
    span = (lo[-2], hi[-2]) if P.dim > 1 else (0, 0)  # the box along the rows
    width = np.minimum.reduce(shadow[:sides_up], axis=0, initial=span[1] + 1)
    below = np.minimum.reduce(shadow[sides_up:], axis=0, initial=-span[0])
    width += below
    np.maximum(width, 0, out=width)
    offset = width - width.cumsum() - below  # head i of row r lies at i + offset[r] along it
    # the heads under the shadow, row by row, by their row's index (below
    # the box's lines, so int32)
    row_of = np.repeat(np.arange(len(width), dtype=np.int32), width)
    # the lines, at most one per head: heads, lower, counts and faces
    out = np.empty((P.dim + 4, len(row_of)), np.int64)
    heads, lower, counts, faces = out[: P.dim - 1], out[P.dim - 1], out[P.dim], out[P.dim + 1 :]
    fractional = [k for k, b in enumerate(P.facet_bounds) if b % q]
    kept = total = 0
    for s in range(0, len(row_of), _SCAN_CHUNK):
        r = row_of[s : s + _SCAN_CHUNK]
        x = offset.take(r)
        x += np.arange(s, s + len(r))  # each head's coordinate along its row
        room = base.take(r, axis=1)
        work = inner * x  # one (facets, heads) buffer for the products
        room -= work
        t = room
        if divided.start < divided.stop:
            t = work
            t[:] = room
            t[divided] //= divisor
        last = np.minimum.reduce(t[:up], axis=0, initial=hi[-1])
        first = np.minimum.reduce(t[up:down], axis=0, initial=-lo[-1])
        np.negative(first, out=first)
        k = last - first
        full = (k >= 0).nonzero()[0]
        n = kept + len(full)
        count = np.add(k[full], 1, out=counts[kept:n])
        total += int(count.sum())
        if total > POINT_BUDGET:
            continue  # past the budget only the total is kept, for the message
        lower[kept:n] = first[full]
        for row, col in zip(heads, (r, x)[3 - P.dim :]):  # x0 is the row's index until the end
            row[kept:n] = col[full]
        del r, x, k  # not held while the masks are formed
        masks = np.empty((3, len(last)), np.int64)  # tight at the first, last point, both
        for end, mask in zip((first, last), masks):
            np.multiply(a, end, out=work)
            np.equal(room, work, out=work)  # 1 where tight
            np.matmul(bits, work, out=mask)
        del room, work, t
        np.bitwise_and(masks[0], masks[1], out=masks[2])
        if fractional:  # no lattice point is tight on a facet whose bound q does not divide
            masks &= ~sum(1 << k for k in fractional)
        faces[:, kept:n] = _face_ids_of_masks(P, masks.take(full, axis=1))
        kept = n
    check_budget("lattice points", total)
    heads[: P.dim - 2, :kept] += lo[0]
    return heads[:, :kept].T, lower[:kept], counts[:kept], faces[:, :kept]


def scan_lattice(P: Polytope, lines: tuple[np.ndarray, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The lattice points of P on the given lines, by default all of them,
    with their face classification.

    `lines` is lattice_lines(P) or a run of consecutive lines sliced from
    each of its arrays (the faces along their last axis).  Returns (points,
    face_ids): an (N, dim) int64 array, line by line, so in lexicographic
    order, and a parallel int array; interior points get the id of the full
    face.  Each point takes the face lattice_lines gives its line for it,
    first, last or between, so nothing is located here.  Nothing is kept on
    the polytope: each call scans afresh.
    """
    heads, lower, counts, faces = lattice_lines(P) if lines is None else lines
    face_ids = faces[2].repeat(counts)
    last = counts.cumsum() - 1
    face_ids[last] = faces[1]
    face_ids[last - counts + 1] = faces[0]  # a one-point line's two ends agree
    return line_points(heads, lower, counts), face_ids


def volume(P: Polytope) -> Fraction:
    """Euclidean volume of P, exact: a sum of simplex volumes over the
    numerators, divided by d! q^d.

    The simplices pull P from vertex 0, read off the face lattice: vertex 0
    is joined to each edge off it in 2-d, and in 3-d to each triangle
    (m, a, b) of a facet off it, m the facet's least vertex and ab one of
    the facet's edges off m.  They fill P with disjoint interiors, so
    absolute determinants can be summed.
    """
    V = P.numerators
    edges = [f.vertex_ids for f in P.edges()]  # each (a, b) with a < b
    vol = 0
    if P.dim == 1:
        vol = V[-1][0] - V[0][0]
    elif P.dim == 2:
        for a, b in edges:
            if a > 0:  # off vertex 0
                (u0, u1), (w0, w1) = _sub(V[a], V[0]), _sub(V[b], V[0])
                vol += abs(u0 * w1 - u1 * w0)
    else:
        for vs in P.facet_vertex_ids:
            if 0 in vs:
                continue
            m = min(vs)
            z = _sub(V[m], V[0])
            for a, b in edges:
                if a > m and a in vs and b in vs:  # an edge of the facet off m
                    vol += abs(det3(_sub(V[a], V[m]), _sub(V[b], V[m]), z))
    return Fraction(vol, math.factorial(P.dim) * P.denominator**P.dim)


def translate(P: Polytope, shift: RationalVector | Sequence[Rational | str]) -> Polytope:
    """P + shift: over the least common multiple of q and the shift's
    denominators, reduced again."""
    shift = as_vector(shift)
    if shift.dim != P.dim:
        raise DimensionMismatch("shift dimension differs from polytope dimension")
    (s,), q = _cleared([shift.coords], P.denominator)
    k = q // P.denominator
    V = [tuple(k * c + t for c, t in zip(v, s)) for v in P.numerators]
    bounds = [k * b + _dot(N, s) for N, b in zip(P.facet_normals, P.facet_bounds)]
    V, q, bounds = _lowest_terms(V, q, bounds)
    return replace(P, numerators=V, denominator=q, facet_bounds=bounds)


def polytope_to_dict(P: Polytope) -> dict:
    """JSON-ready description: dimension plus vertices as 'p/q' strings."""
    return {
        "dim": P.dim,
        "vertices": [[str(c) for c in v.coords] for v in P.vertices],
    }


def polytope_from_dict(data: object) -> Polytope:
    """Parse the JSON form; error messages name the offending field."""
    if not isinstance(data, dict):
        raise MalformedInput("top level: expected an object")
    if "dim" not in data:
        raise MalformedInput("dim: missing")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise MalformedInput("dim: expected an integer")
    if not 1 <= dim <= 3:
        raise MalformedInput(f"dim: {dim} outside supported range 1..3")
    raw = data.get("vertices")
    if not isinstance(raw, list) or not raw:
        raise MalformedInput("vertices: expected a non-empty list")
    parsed = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise MalformedInput(f"vertices[{i}]: expected a list of {dim} coordinates")
        coords = []
        for j, c in enumerate(row):
            if not isinstance(c, (str, int)) or isinstance(c, bool):
                raise MalformedInput(
                    f"vertices[{i}][{j}]: expected an integer or 'p/q' string"
                )
            try:
                coords.append(_exact(c))
            except (ValueError, ZeroDivisionError) as exc:
                raise MalformedInput(f"vertices[{i}][{j}]: {exc}") from exc
        parsed.append(RationalVector(coords))
    try:
        return build_polytope(parsed)
    except (DegenerateInput, UnsupportedDimension, DimensionMismatch) as exc:
        raise MalformedInput(f"vertices: {exc}") from exc
