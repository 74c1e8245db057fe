"""Exact geometry for rational convex polytopes in ambient dimension 1 to 4.

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

The face lattice is explicit, and every face is named by its facet mask,
the bitmask of the facets containing it.  A face is the intersection of
those facets (Ziegler, Lectures on Polytopes, 1995), so no two faces share
a mask, the full face's is 0, a facet's has one bit and each face carries
the vertex indices whose masks contain its own.  A point in P lies in the
relative interior of the face whose mask is the set of facets the point is
tight on, and one table built with the lattice, Polytope.mask_table, turns
such masks into face ids (from a point, a lattice line's ends or a batch
of orbit points); volume pulls P into simplices along the same lattice,
and lattice_lines finds P's shadow from its edges.  Hulls and volumes take
d <= 4; lattice lines, like the angles and weyl, d <= 3.
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

# Most lattice points, (lattice line, facet) pairs, shadow rooms,
# count-table cells (faces x n for the direct route), kappa terms or search
# candidates one request may enumerate; larger requests raise MalformedInput.  The search
# holds only the candidates whose first vector is the least of its
# W-orbit, 8 bytes each (an int16 index triple, a class-minimum flag and a
# stabiliser order), and keys only the least of each W-class, 8 bytes more;
# the rest it counts by orbit-stabiliser.  A G_P(n) request holds the
# lattice lines of nP and at most polysum._LINE_PATH_POINTS = 2^13
# points, or one run of lines with at most max(polysum._COUNT_CHUNK,
# faces x n) line ends and interiors, at a time; the search's direct
# test, on a unimodular simplex, holds at most 2^13 compositions of n
# instead, and no lines.  kappa holds one triangle of C(n - 1, 2) parts,
# so the point and term budgets bound its time, not its memory.  The
# line stage holds, per head under P's shadow, 4 bytes for its row and
# 8 (d + 4) for the line it may carry (its d - 1 head coordinates,
# the padding of a 1-d or 2-d head not stored, first coordinate, count and
# three faces), and one chunk's facet rooms.  There are at most as many
# such heads as lines of the bounding box, so at most POINT_BUDGET /
# facets, and a d-polytope has at least d + 1 facets: 2^22 heads of 60
# bytes, under 255 MB, in 3-d and 2^24 / 3 of 52, under 295 MB, in 2-d.
# Before the heads it holds the shadow's rooms, one int64 per side or
# facet and x0 row of the box, at most POINT_BUDGET of them, and the
# product that forms them: at most 2^28 bytes, 268 MB.  A side comes from
# an edge of P between an up and a down facet, so a prism along x0 has
# two, whatever its polygon.
# fund_tet at n = 256 has 2,862,209 points on 33,153 lines, one per head
# under its shadow.
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


def integer_points(points: Sequence, error: str) -> list[tuple[int, ...]]:
    """Coordinates of lattice points as int tuples; raises MalformedInput
    with the given message when any coordinate is not integral."""
    pts = [tuple(c if type(c) is int else _exact(c) for c in p) for p in points]
    if any(type(c) is not int for p in pts for c in p):
        raise MalformedInput(error)
    return pts


def sub(a: Sequence[Rational], b: Sequence[Rational]) -> tuple[Rational, ...]:
    return tuple(map(operator.sub, a, b))


def dot(a: Sequence[Rational], b: Sequence[Rational]) -> Rational:
    return sum(map(operator.mul, a, b))


@functools.cache
def _cofactor_terms(k: int) -> tuple:
    """The Leibniz terms of det(x, rows) for k rows, grouped by the column j
    that x takes: per j, pairs (sign, factors), a factor (i, c) being the
    entry of row i in column c."""
    terms = [[] for _ in range(k + 1)]
    for p in itertools.permutations(range(k + 1)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(p, 2))
        terms[p[0]].append((sign, tuple(enumerate(p[1:]))))
    return tuple(map(tuple, terms))


def cofactors(rows):
    """The signed maximal minors N of k rows with k + 1 coordinates, so that
    N . x = det(x, rows): (1,) for no rows, the cross product for two.
    Exact for ints and Fractions, elementwise for rows of numpy arrays."""
    N = []
    for terms in _cofactor_terms(len(rows)):
        s = 0
        for t, factors in terms:
            for i, c in factors:
                t = t * rows[i][c]
            s = s + t
        N.append(s)
    return N


def det(rows):
    """Determinant of the square matrix with the given rows."""
    return dot(rows[0], cofactors(rows[1:]))


def affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of a non-empty set of integer points:
    the rank of their differences from the first, by elimination.  It is
    fraction-free (r <- b[p] r - r[p] b), so integer rows stay integer."""
    basis: list[tuple[int, Sequence[int]]] = []  # (pivot, row)
    for r in (sub(p, points[0]) for p in points[1:]):
        for p, b in basis:
            e = r[p]
            if e:
                r = [b[p] * x - e * y for x, y in zip(r, b)]
        for p, x in enumerate(r):
            if x:
                basis.append((p, r))
                break
    return len(basis)


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
    bbox() give them as rationals.  The face lattice is faces, facet k
    being the face of mask 1 << k, and mask_table, the read-only (2, faces)
    array whose rows are the face masks in increasing order and the ids of
    those faces.  Dilates and translates share the normals and the face
    lattice.  Nothing computed from a polytope is kept on it: its volume,
    face angles and lattice lines are formed afresh on each call.
    """

    dim: int
    numerators: tuple[tuple[int, ...], ...]
    denominator: int
    facet_normals: tuple[tuple[int, ...], ...]
    facet_bounds: tuple[int, ...]
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
        normal = cofactors([sub(p, subset[0]) for p in subset[1:]])
        g = math.gcd(*normal)
        if not g:
            continue
        normal = tuple(a // g for a in normal)
        offset = dot(normal, subset[0])
        levels = [dot(normal, p) for p in points]
        low, high = min(levels), max(levels)
        if low < offset < high:
            continue  # cuts through the point set, not supporting
        on = sum(1 << i for i, h in enumerate(levels) if h == offset)
        if high > offset:
            normal, offset = tuple(-a for a in normal), -offset
        planes[(normal, offset)] = on
    return planes


def _build_face_lattice(
    vertices: Sequence[tuple[int, ...]], through: Sequence[int]
) -> tuple[tuple[Face, ...], np.ndarray]:
    """Faces in order of dimension, then vertex ids, so P itself comes last,
    and the mask table over them (see Polytope).  through[i] is the mask of
    the facets through vertex i.  A face is the intersection of the facets
    holding it, so its mask is the AND of its vertices' masks: the faces'
    masks are the closure of the vertices' under AND, mask 0 is P, and each
    face holds every vertex whose mask contains its own."""
    masks = frontier = set(through)
    while frontier:
        frontier = {m & t for m in frontier for t in through} - masks
        masks = masks | frontier
    faces = []
    for m in masks:
        ids = tuple(i for i, t in enumerate(through) if t & m == m)
        faces.append(Face(affine_rank([vertices[i] for i in ids]), ids, m))
    faces.sort(key=lambda f: (f.dim, f.vertex_ids))
    order = sorted(range(len(faces)), key=lambda i: faces[i].mask)
    # Masks of more facets overflow int64; such a polytope is only ever
    # located one point at a time (classify_point), on Python ints.
    wide = max(through).bit_length() > _MAX_FACETS_FOR_BITMASK
    table = np.array([[faces[i].mask for i in order], order], dtype=object if wide else np.int64)
    table.flags.writeable = False
    return tuple(faces), table


def build_polytope(points: Sequence[RationalVector | Sequence[Rational | str]]) -> Polytope:
    """Convex hull of a rational point set, as an exact Polytope.

    The points' denominators are cleared once, and the hull is found on
    their int numerators, in dimension 1 to 4.  Facets are found by brute
    force over d-element subsets, which is entirely adequate at these sizes
    and trivially correct.  Input points that are not vertices are dropped.
    """
    rows = [as_vector(p).coords for p in points]
    if not rows:
        raise DegenerateInput("empty point set")
    dim = len(rows[0])
    if not 1 <= dim <= 4:
        raise UnsupportedDimension(f"ambient dimension {dim} not in 1..4")
    if any(len(r) != dim for r in rows):
        raise DimensionMismatch("points of mixed dimensions")
    rows, q = _cleared(rows)
    uniq = sorted(set(rows))
    if affine_rank(uniq) != dim:
        raise DegenerateInput(
            f"points span affine dimension {affine_rank(uniq)}, need {dim}"
        )

    planes, on = zip(*sorted(_facet_planes(dim, uniq).items()))
    normals, bounds = zip(*planes)

    # A point is a hull vertex iff no other point lies on every facet
    # through it; through[i] masks the facets through vertex i.
    kept, through = [], []
    for i in range(len(uniq)):
        common, mask = -1, 0
        for k, pts in enumerate(on):
            if pts >> i & 1:
                common &= pts
                mask |= 1 << k
        if common == 1 << i:
            kept.append(i)
            through.append(mask)
    numerators, q, bounds = _lowest_terms([uniq[i] for i in kept], q, bounds)

    faces, table = _build_face_lattice(numerators, through)
    if {f.mask for f in faces if f.dim == dim - 1} != {1 << k for k in range(len(normals))}:
        raise AssertionError(f"the faces of dimension {dim - 1} are not the {len(normals)} facets")
    return Polytope(
        dim=dim,
        numerators=numerators,
        denominator=q,
        facet_normals=normals,
        facet_bounds=bounds,
        faces=faces,
        mask_table=table,
    )


def dilate(P: Polytope, n: int) -> Polytope:
    """The dilate nP for a positive integer n: with g = gcd(n, q), its
    numerators are n/g times P's over the denominator q/g."""
    n = check_positive_int(n, "dilation factor")
    if n == 1:
        return P
    g = math.gcd(n, P.denominator)
    m = n // g
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
        s = P.denominator * dot(normal, a) - r * b
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


def check_positive_int(n: int, what: str) -> int:
    """n as a built-in int, so what holds it serialises; MalformedInput
    unless n is an integer >= 1.  numpy integers count, bools do not."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise MalformedInput(f"{what} must be an integer, got {n}")
    if n < 1:
        raise MalformedInput(f"{what} must be >= 1, got {n}")
    return operator.index(n)


def _interval(a: np.ndarray, room: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Per column of room, the least and the greatest integer t in [lo, hi]
    with a_k t <= room_k on every row k where a_k != 0: a_k > 0 bounds t
    above by floor(room_k / a_k), a_k < 0 below by -floor(room_k / -a_k).
    The least exceeds the greatest where there is no such t."""
    up, down = a > 0, a < 0
    last = np.minimum.reduce(room.compress(up, 0) // a[up][:, None], axis=0, initial=hi)
    first = np.minimum.reduce(room.compress(down, 0) // -a[down][:, None], axis=0, initial=-lo)
    return np.negative(first, out=first), last


def lattice_lines(P: Polytope) -> tuple[np.ndarray, ...]:
    """The non-empty lattice lines of P parallel to the last axis, in
    lexicographic order of their heads: (heads, lower, counts, faces), each
    line's head (its points' other coordinates), first last coordinate and
    number of lattice points, and the (3, lines) ids of the faces holding
    its first point, its last point and the points between.

    The lattice points of P are those of N x <= c, N the facet normals and
    c = b // q their bounds over the denominator, floored.  The normals of
    a 1-d or 2-d polytope get leading zeros, so every dimension is scanned
    as 3-d: heads (x0, x1), lines along x2.  One rule, _interval, gives
    every interval: rows (a_k, room_k) allow the integers t with a_k t <=
    room_k.  It runs twice.  First on P's shadow on (x0, x1), whose sides
    come from P's edges (Ziegler, Lectures on Polytopes, 1995): x2 is
    eliminated from the two facets of each edge when one is up (a_k > 0,
    a_k the last coordinate of N_k) and the other down (a_j < 0), giving
    the side |a_j| N_k + |a_k| N_j with bound |a_j| c_k + |a_k| c_j; these
    sides and the facets along the lines (a_k = 0) hold on the shadow, so
    for each x0 of the box the rows (x1 term, bound - x0 term * x0) give
    its x1-interval, hence the heads under the shadow.  A side with no x1
    term bounds x0 alone, as the box does, and is dropped.  The padded
    normals of a 1-d or 2-d polytope have no x0 term, so its sides would
    bound x1 alone, as the box does: it forms none, and its shadow is its
    box, one row at x0 = 0.  Then on the lines: on the line through
    head h, facet k leaves room s_k = c_k - N_k[:-1] . h, and the rows
    (a_k, s_k) give its first and last point; a facet along the lines holds
    on every head under the shadow.  The point (h, t) is tight on facet k
    iff s_k = a_k t and q divides b_k, so the rooms also give the faces of
    the line's ends.  A facet with a_k != 0 meets the line at most once, so
    the points between lie on the face of the facets tight at both ends.

    Heads are taken in chunks of _SCAN_CHUNK: their rooms are formed
    facet-major, each x0 row's rooms less the x1 terms, with no integer
    matmul, and their tight masks one end at a time in one reused
    (facets, chunk) buffer.  The lines are written into one array with a
    column per head under the shadow, so memory is O(heads + chunk x
    facets + rooms), and there are no more heads than lines of the box.  A
    request of more than POINT_BUDGET (line, facet) pairs on the bounding
    box raises MalformedInput before anything is allocated, one of more
    than POINT_BUDGET shadow rooms (sides and facets, per x0 row of the
    box) before they are formed, and one of more than POINT_BUDGET lattice
    points before any point is, with faces formed only for the lines
    within that budget; so does a polytope whose
    bounding box, facet bounds or shadow bounds do not fit int64.
    """
    if P.dim > 3:
        raise UnsupportedDimension(f"lattice lines need dimension 1..3, not {P.dim}")
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
    pad = 3 - P.dim
    lo, hi = [0] * pad + lo, [0] * pad + hi
    facets = [((0,) * pad + n, b // q) for n, b in zip(P.facet_normals, P.facet_bounds)]
    sides = []
    if P.dim == 3:
        # the shadow's sides: the facets along the lines, and x2 eliminated
        # from the two facets of each edge, its mask's lowest and highest
        # bits, when one is up and the other down
        sides = [(n, c) for n, c in facets if n[2] == 0]
        for f in P.faces[len(P.numerators) :]:  # the edges follow the vertices
            if f.dim > 1:
                break
            m = f.mask
            (n, c), (k, e) = facets[(m & -m).bit_length() - 1], facets[m.bit_length() - 1]
            if n[2] * k[2] < 0:
                u, v = abs(k[2]), abs(n[2])
                sides.append(([u * x + v * y for x, y in zip(n, k)], u * c + v * e))
        sides = [(n, c) for n, c in sides if n[1]]
    check_budget("shadow rooms", (len(sides) + len(facets)) * (hi[0] - lo[0] + 1))  # rooms' shape, below
    head, bound = zip(*((n[0], c) for n, c in sides + facets))  # the rows' x0 terms and bounds
    # the largest room a row leaves, bound - x0 term * x0: being linear in
    # x0, it is largest in magnitude on the first or the last row
    reach = max(abs(b - h * x) for b, h in zip(bound, head) for x in (lo[0], hi[0]))
    bound = int64_array([*bound, reach], "facet bounds")[:-1]
    rooms = bound[:, None] - np.array(head, np.int64)[:, None] * np.arange(lo[0], hi[0] + 1)  # rows x x0
    first, last = _interval(np.array([n[1] for n, _ in sides], np.int64), rooms[: len(sides)], lo[1], hi[1])
    base = rooms[len(sides) :]
    width = np.maximum(last - first + 1, 0)
    offset = first - (width.cumsum() - width)  # head i of row r lies at x1 = i + offset[r]
    # the heads under the shadow, row by row, by their row's index (below
    # the box's lines, so int32)
    row_of = np.repeat(np.arange(len(width), dtype=np.int32), width)
    inner, a, bits = np.array([(n[1], n[2], 1 << k) for k, (n, _) in enumerate(facets)], np.int64).T
    # the lines, at most one per head: heads, lower, counts and faces
    out = np.empty((P.dim + 4, len(row_of)), np.int64)
    heads, lower, counts, faces = out[: P.dim - 1], out[P.dim - 1], out[P.dim], out[P.dim + 1 :]
    fractional = [k for k, b in enumerate(P.facet_bounds) if b % q]
    kept = total = 0
    for s in range(0, len(row_of), _SCAN_CHUNK):
        r = row_of[s : s + _SCAN_CHUNK]
        x = offset.take(r)
        x += np.arange(s, s + len(r))  # each head's x1
        room = base.take(r, axis=1)
        work = inner[:, None] * x  # one (facets, heads) buffer for the products
        room -= work
        first, last = _interval(a, room, lo[2], hi[2])
        k = last - first
        full = (k >= 0).nonzero()[0]
        n = kept + len(full)
        count = np.add(k[full], 1, out=counts[kept:n])
        total += int(count.sum())
        if total > POINT_BUDGET:
            continue  # past the budget only the total is kept, for the message
        lower[kept:n] = first[full]
        for row, col in zip(heads[::-1], (x, r + np.int64(lo[0]))):  # a head keeps its last dim - 1 of x0, x1
            row[kept:n] = col[full]
        del r, x, k  # not held while the masks are formed
        masks = np.empty((3, len(last)), np.int64)  # tight at the first, last point, both
        for end, mask in zip((first, last), masks):
            np.multiply(a[:, None], end, out=work)
            np.equal(room, work, out=work)  # 1 where tight
            np.matmul(bits, work, out=mask)
        del room, work
        np.bitwise_and(masks[0], masks[1], out=masks[2])
        if fractional:  # no lattice point is tight on a facet whose bound q does not divide
            masks &= ~sum(1 << k for k in fractional)
        faces[:, kept:n] = _face_ids_of_masks(P, masks.take(full, axis=1))
        kept = n
    check_budget("lattice points", total)
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
    """Euclidean volume of P, d = 1 to 4, exact: a sum of simplex volumes
    over the numerators, divided by d! q^d.

    The simplices are a pulling triangulation (De Loera, Rambau and Santos,
    Triangulations, 2010) read off the face lattice: a face is pulled from
    its least vertex v into each face one dimension down that misses v
    (whose mask holds the face's and whose least vertex is past v), and so
    on down to the vertices, so each simplex is spanned by the least
    vertices of a chain of faces.  They fill P with disjoint interiors, so
    absolute determinants can be summed.
    """
    V = P.numerators

    def pulled(face: Face, apexes: tuple[int, ...]) -> int:
        v = face.vertex_ids[0]
        if face.dim == 0:
            return abs(det([sub(V[a], V[v]) for a in apexes]))
        return sum(
            pulled(f, apexes + (v,))
            for f in P.faces
            if f.dim == face.dim - 1 and f.vertex_ids[0] > v and f.mask & face.mask == face.mask
        )

    return Fraction(pulled(P.faces[-1], ()), math.factorial(P.dim) * P.denominator**P.dim)


def translate(P: Polytope, shift: RationalVector | Sequence[Rational | str]) -> Polytope:
    """P + shift: over the least common multiple of q and the shift's
    denominators, reduced again."""
    shift = as_vector(shift)
    if shift.dim != P.dim:
        raise DimensionMismatch("shift dimension differs from polytope dimension")
    (s,), q = _cleared([shift.coords], P.denominator)
    k = q // P.denominator
    V = [tuple(k * c + t for c, t in zip(v, s)) for v in P.numerators]
    bounds = [k * b + dot(N, s) for N, b in zip(P.facet_normals, P.facet_bounds)]
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
