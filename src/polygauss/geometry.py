"""Exact geometry for rational convex polytopes in ambient dimension 1, 2, or 3.

Polytopes are stored in both representations at once: an exact vertex list
and a facet system of primitive integer normals with rational offsets.  All
membership and face-classification queries are done in exact rational
arithmetic; floating point only ever enters downstream (angles, phases).

Exact values have one representation: an integral value is a built-in
``int`` and only a non-integral one is a ``Fraction``.  RationalVector
normalises its coordinates on construction, so lattice data stays in
machine-speed int arithmetic through hulls, dilates, volumes and angles,
and "is this coordinate integral" is ``type(c) is int``.  Divisions of
exact values are written ``Fraction(a, b)``, never ``a / b``.

The face lattice is explicit.  Every face carries the vertex indices lying
on it and the bitmask of the facets containing it; a face is the
intersection of those facets, so no two faces share a mask and the full
face's is 0.  A point in P lies in the relative interior of the face whose
mask is the set of facets the point is tight on, and one table built with
the lattice, Polytope.mask_table, turns such masks into face ids.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
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
# candidates one request may materialise; larger requests raise
# MalformedInput.  A search candidate takes 6 bytes while it is enumerated
# and then 20 (int8 vertices and an int64 key).  At its peak a
# request holds about 60 bytes per scanned point on the direct route, 100 on
# the folded route (coordinates, face ids, tight bits, weights, residues,
# sort keys; all 8-byte) and 110 per kappa term, so the budget caps one
# request near 1.8 GB.  Before its points exist a scan holds 8 bytes per line
# and coordinate plus 16 for the line's interval, at most 32 bytes per line;
# a d-polytope has at least d + 1 facets, so that stage stays under 140 MB.
# fund_tet at n = 256 has 2,862,209 points on 65,536 lines.
POINT_BUDGET = 1 << 24
_SCAN_CHUNK = 1 << 14  # lines or points whose facet slacks are held at once


def _exact(c: Rational | str) -> Rational:
    """A coordinate in normal form: a built-in int when integral (numpy
    integers included), otherwise a Fraction."""
    if isinstance(c, numbers.Integral):
        return int(c)
    f = c if type(c) is Fraction else Fraction(c)
    return int(f) if f.denominator == 1 else f


class RationalVector:
    """Immutable point or direction with exact rational coordinates, each an
    int when integral and a Fraction otherwise."""

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

    def __lt__(self, other: "RationalVector") -> bool:
        return self.coords < other.coords

    def __le__(self, other: "RationalVector") -> bool:
        return self.coords <= other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "rvec(" + ", ".join(str(c) for c in self.coords) + ")"

    def _check_dim(self, other: "RationalVector") -> None:
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch(
                f"vectors have dimensions {len(self.coords)} and {len(other.coords)}"
            )

    def __add__(self, other: "RationalVector") -> "RationalVector":
        self._check_dim(other)
        return RationalVector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "RationalVector") -> "RationalVector":
        self._check_dim(other)
        return RationalVector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "RationalVector":
        return RationalVector(-a for a in self.coords)

    def __mul__(self, scalar: Rational) -> "RationalVector":
        return RationalVector(a * scalar for a in self.coords)

    __rmul__ = __mul__

    def dot(self, other: "RationalVector") -> Rational:
        self._check_dim(other)
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def cross(self, other: "RationalVector") -> "RationalVector":
        if len(self.coords) != 3 or len(other.coords) != 3:
            raise UnsupportedDimension("cross product needs dimension 3")
        a, b = self.coords, other.coords
        return RationalVector(
            (
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            )
        )

    def norm_sq(self) -> Rational:
        return sum(a * a for a in self.coords)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)


def rvec(*coords: Rational | str) -> RationalVector:
    """Shorthand constructor: rvec(1, '1/2', 0)."""
    return RationalVector(coords)


def independent_rows(rows: Sequence[Sequence[Rational]]) -> list[int]:
    """Indices of a maximal linearly independent subset, by Gaussian elimination.

    Scans rows in order and keeps each row that is not in the span of the
    rows kept so far, so the result is the greedy (lexicographically first)
    basis.  Elimination is fraction-free (r <- b[p] r - r[p] b), which
    scales rows without changing their span, so integer rows stay integer.
    """
    basis: list[Sequence[Rational]] = []
    pivots: list[int] = []
    picked: list[int] = []
    for idx, r in enumerate(rows):
        for b, p in zip(basis, pivots):
            if r[p]:
                r = [b[p] * x - r[p] * y for x, y in zip(r, b)]
        pivot = next((j for j, x in enumerate(r) if x), None)
        if pivot is None:
            continue
        basis.append(r)
        pivots.append(pivot)
        picked.append(idx)
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


def affine_rank(points: Sequence[RationalVector]) -> int:
    """Dimension of the affine hull of a point set."""
    if not points:
        return -1
    base = points[0]
    diffs = [tuple((p - base).coords) for p in points[1:]]
    return len(independent_rows(diffs))


def _primitive(vec: Sequence[Rational]) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive rational into primitive
    integers."""
    lcm = 1
    for c in vec:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in vec]
    g = math.gcd(*ints) if len(ints) > 1 else abs(ints[0])
    return tuple(n // g for n in ints)


@dataclass(frozen=True)
class Face:
    """A face of the lattice: its dimension, the vertices on it and the
    bitmask of the facets containing it."""

    dim: int
    vertex_ids: tuple[int, ...]
    mask: int


@dataclass(eq=False)
class Polytope:
    """Convex rational polytope, full-dimensional in its ambient space.

    Treat instances as immutable.  A polytope holds its structure: vertices,
    facets, faces and mask_table, the read-only (2, faces) array whose rows
    are the face masks in increasing order and the ids of those faces.  Its
    dilates and translates share that structure and the angle-weight memo
    (see _moved); its volume depends on its size and so is its own memo.
    Results over its lattice points, such as scans and orbit counts, are
    not kept, so evaluating many dilates holds one dilate's scan at a time.
    """

    dim: int
    vertices: tuple[RationalVector, ...]
    facet_normals: tuple[tuple[int, ...], ...]
    facet_offsets: tuple[Rational, ...]
    facet_vertex_ids: tuple[frozenset[int], ...]
    faces: tuple[Face, ...]
    mask_table: np.ndarray = field(repr=False)
    _angle_cache: dict[int, float] = field(repr=False, default_factory=dict)
    _volume: Fraction | None = field(repr=False, default=None)

    @property
    def n_facets(self) -> int:
        return len(self.facet_normals)

    @property
    def full_face_id(self) -> int:
        """Id of P itself as a face, the last in the lattice's order."""
        return len(self.faces) - 1

    def bbox(self) -> tuple[tuple[Rational, ...], tuple[Rational, ...]]:
        axes = list(zip(*(v.coords for v in self.vertices)))
        return tuple(map(min, axes)), tuple(map(max, axes))

    def edges(self) -> list[Face]:
        return [f for f in self.faces if f.dim == 1]

    def __repr__(self) -> str:
        return (
            f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, "
            f"facets={self.n_facets})"
        )


def _facet_planes(
    dim: int, points: list[RationalVector]
) -> list[tuple[tuple[int, ...], Rational]]:
    """All supporting hyperplanes spanned by d-subsets of the points, oriented
    so the polytope satisfies <normal, x> <= offset."""
    planes: dict[tuple[tuple[int, ...], Rational], None] = {}
    for subset in itertools.combinations(points, dim):
        if dim == 1:
            normal_frac = (1,)
        elif dim == 2:
            d = subset[1] - subset[0]
            if d.is_zero():
                continue
            normal_frac = (d[1], -d[0])
        else:
            n = (subset[1] - subset[0]).cross(subset[2] - subset[0])
            if n.is_zero():
                continue
            normal_frac = n.coords
        normal = _primitive(normal_frac)
        nvec = RationalVector(normal)
        offset = _exact(nvec.dot(subset[0]))
        side_lo = side_hi = False
        for p in points:
            s = nvec.dot(p) - offset
            if s > 0:
                side_hi = True
            elif s < 0:
                side_lo = True
            if side_lo and side_hi:
                break
        if side_lo and side_hi:
            continue  # cuts through the point set, not supporting
        if side_hi:
            normal = tuple(-a for a in normal)
            offset = -offset
        planes[(normal, offset)] = None
    return list(planes)


def _build_face_lattice(
    dim: int,
    vertices: tuple[RationalVector, ...],
    facet_vertex_ids: tuple[frozenset[int], ...],
) -> tuple[tuple[Face, ...], np.ndarray]:
    """Faces in order of dimension, then vertex ids, so P itself comes last,
    and the mask table over them (see Polytope)."""
    face_sets: dict[frozenset[int], int] = {}
    for i in range(len(vertices)):
        face_sets[frozenset([i])] = 0
    for vs in facet_vertex_ids:
        face_sets.setdefault(vs, dim - 1)
    if dim == 3:
        for vs1, vs2 in itertools.combinations(facet_vertex_ids, 2):
            shared = vs1 & vs2
            if len(shared) == 2:
                face_sets.setdefault(shared, 1)
    everything = frozenset(range(len(vertices)))
    face_sets[everything] = dim

    def sort_key(item: tuple[frozenset[int], int]):
        vs, fdim = item
        return (fdim, tuple(sorted(vs)))

    faces: list[Face] = []
    for vs, fdim in sorted(face_sets.items(), key=sort_key):
        ids = tuple(sorted(vs))
        rank = affine_rank([vertices[i] for i in ids])
        if rank != fdim:
            raise AssertionError(
                f"face on vertices {ids} has affine rank {rank}, expected {fdim}"
            )
        mask = sum(1 << k for k, fvs in enumerate(facet_vertex_ids) if vs <= fvs)
        faces.append(Face(dim=fdim, vertex_ids=ids, mask=mask))
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

    Facets are found by brute force over d-element subsets, which is entirely
    adequate at these sizes and trivially correct.  Input points that are not
    vertices of the hull are dropped.
    """
    pts = [p if isinstance(p, RationalVector) else RationalVector(p) for p in points]
    if not pts:
        raise DegenerateInput("empty point set")
    dim = pts[0].dim
    if not 1 <= dim <= 3:
        raise UnsupportedDimension(f"ambient dimension {dim} not in 1..3")
    for p in pts:
        if p.dim != dim:
            raise DimensionMismatch("points of mixed dimensions")
    uniq = sorted(set(pts))
    if affine_rank(uniq) != dim:
        raise DegenerateInput(
            f"points span affine dimension {affine_rank(uniq)}, need {dim}"
        )

    planes = _facet_planes(dim, uniq)

    # A hull vertex is a point whose tight facet normals span the full space.
    vertices: list[RationalVector] = []
    for p in uniq:
        tight_normals = [
            normal
            for normal, offset in planes
            if RationalVector(normal).dot(p) == offset
        ]
        if len(independent_rows(tight_normals)) == dim:
            vertices.append(p)
    vertices.sort()
    vtuple = tuple(vertices)

    facet_vertex_ids = []
    normals = []
    offsets = []
    for normal, offset in sorted(planes):
        nvec = RationalVector(normal)
        on = frozenset(i for i, v in enumerate(vtuple) if nvec.dot(v) == offset)
        if len(on) < dim:
            raise AssertionError(f"facet {normal} carries only {len(on)} vertices")
        normals.append(normal)
        offsets.append(offset)
        facet_vertex_ids.append(on)

    faces, table = _build_face_lattice(dim, vtuple, tuple(facet_vertex_ids))
    return Polytope(
        dim=dim,
        vertices=vtuple,
        facet_normals=tuple(normals),
        facet_offsets=tuple(offsets),
        facet_vertex_ids=tuple(facet_vertex_ids),
        faces=faces,
        mask_table=table,
    )


def _moved(
    P: Polytope, vertices: tuple[RationalVector, ...], offsets: tuple[Rational, ...]
) -> Polytope:
    """P with new vertices and facet offsets, after a dilation or translation.

    The copy shares everything such a move leaves alone: normals, facet
    vertex ids, faces, the mask table and the angle weights.  Its volume
    starts empty.
    """
    return Polytope(
        dim=P.dim,
        vertices=vertices,
        facet_normals=P.facet_normals,
        facet_offsets=offsets,
        facet_vertex_ids=P.facet_vertex_ids,
        faces=P.faces,
        mask_table=P.mask_table,
        _angle_cache=P._angle_cache,
    )


def dilate(P: Polytope, n: int) -> Polytope:
    """The dilate nP for a positive integer n, a new polytope on every call
    that shares P's structure and angle weights."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise MalformedInput(f"dilation factor must be a positive integer, got {n}")
    if n == 1:
        return P
    vertices = tuple(RationalVector(tuple(c * n for c in v.coords)) for v in P.vertices)
    return _moved(P, vertices, tuple(b * n for b in P.facet_offsets))


def _face_ids_of_masks(P: Polytope, masks: np.ndarray) -> np.ndarray:
    """Id of the face named by each tight-facet mask, by binary search in
    P.mask_table; a mask that names no face raises AssertionError."""
    known, ids = P.mask_table
    pos = np.searchsorted(known, masks).clip(max=len(known) - 1)
    unknown = known[pos] != masks
    if unknown.any():
        m = int(masks[unknown][0])
        tight = [i for i in range(P.n_facets) if m >> i & 1]
        raise AssertionError(f"tight set {tight} resolves to no face")
    return ids[pos]


def classify_point(P: Polytope, x: RationalVector) -> int | None:
    """Id of the face of P whose relative interior holds the rational point
    x, which is P.full_face_id for an interior point; None outside P."""
    if x.dim != P.dim:
        raise DimensionMismatch(f"point has dimension {x.dim}, polytope {P.dim}")
    mask = 0
    for i, (normal, offset) in enumerate(zip(P.facet_normals, P.facet_offsets)):
        s = sum(a * c for a, c in zip(normal, x.coords)) - offset
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
    equal to {x : A x <= c} and tightness preserved row by row."""
    rows = []
    bounds = []
    for normal, offset in zip(P.facet_normals, P.facet_offsets):
        den = offset.denominator
        rows.append([a * den for a in normal])
        bounds.append(offset.numerator)
    return int64_array(rows, "facet normals"), int64_array(bounds, "facet bounds")


def line_points(heads: np.ndarray, lower: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Rows (h, t) for every row h of `heads` and t = lower .. lower + count - 1,
    head by head, so lexicographically ordered heads give lexicographically
    ordered rows."""
    total = int(counts.sum())
    out = np.empty((total, heads.shape[1] + 1), dtype=np.int64)
    out[:, :-1] = np.repeat(heads, counts, axis=0)
    out[:, -1] = np.arange(total) - np.repeat(np.cumsum(counts) - counts - lower, counts)
    return out


def _require_bitmask_facets(P: Polytope) -> None:
    if P.n_facets > _MAX_FACETS_FOR_BITMASK:
        raise UnsupportedDimension(
            f"{P.n_facets} facets exceeds the bitmask scan limit"
        )


def locate_points(P: Polytope, points: np.ndarray, A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Face of P at each integer row z of `points`, all inside A z <= c: the
    id of the face in whose relative interior z lies.

    A, c is P's integer facet system or a scaled or shifted copy of it, row
    for row.  The bitmask of the facets each point is tight on is computed
    in chunks of points; interior points (mask 0) get P.full_face_id and
    only boundary masks are looked up in P.mask_table.
    """
    _require_bitmask_facets(P)
    bit = np.int64(1) << np.arange(P.n_facets, dtype=np.int64)
    masks = np.empty(len(points), dtype=np.int64)
    for s in range(0, len(points), _SCAN_CHUNK):
        masks[s : s + _SCAN_CHUNK] = (points[s : s + _SCAN_CHUNK] @ A.T == c) @ bit
    face_ids = np.full(len(points), P.full_face_id, dtype=np.int64)
    on_boundary = np.flatnonzero(masks)
    face_ids[on_boundary] = _face_ids_of_masks(P, masks[on_boundary])
    return face_ids


def check_budget(what: str, count: int, remedy: str = "use a smaller n") -> None:
    """Raise MalformedInput when a request would materialise more than
    POINT_BUDGET rows."""
    if count > POINT_BUDGET:
        raise MalformedInput(
            f"{count} {what} exceed the budget of {POINT_BUDGET}; {remedy}"
        )


def _line_intervals(
    heads: np.ndarray, A: np.ndarray, c: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """First last coordinate and point count of the lattice line through each
    head inside A x <= c and lo <= x_last <= hi, in chunks of heads."""
    a = A[:, -1]
    step = np.where(a == 0, 1, np.abs(a))
    lower = np.empty(len(heads), dtype=np.int64)
    counts = np.empty(len(heads), dtype=np.int64)
    for s in range(0, len(heads), _SCAN_CHUNK):
        room = c - heads[s : s + _SCAN_CHUNK] @ A[:, :-1].T  # (chunk, facets)
        t = room // step
        upper = t[:, a > 0].min(axis=1, initial=hi)
        first = -t[:, a < 0].min(axis=1, initial=-lo)
        upper[(room[:, a == 0] < 0).any(axis=1)] = lo - 1
        lower[s : s + _SCAN_CHUNK] = first
        counts[s : s + _SCAN_CHUNK] = np.maximum(upper - first + 1, 0)
    return lower, counts


def scan_lattice(P: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """All lattice points of P with their face classification, vectorized.

    Returns (points, face_ids): an (N, dim) int64 array in lexicographic
    order and a parallel int array; interior points get the id of the full
    face.  Nothing is kept on the polytope: each call scans afresh.

    The scan walks the lattice lines parallel to the last axis, one per
    lattice point ("head") of the bounding box with its last coordinate
    dropped.  On the line through head h, facet k of the integer system
    A x <= c leaves room s_k = c_k - A_k[:-1] . h for a_k x_last, so a_k > 0
    bounds x_last above by floor(s_k / a_k), a_k < 0 bounds it below by
    ceil(s_k / a_k) = -floor(s_k / |a_k|), and a_k = 0 empties the line
    when s_k < 0.  int64 floor division makes every interval exact.  Only
    the lattice points inside are materialised.  Intervals, slacks and
    tight bits are computed in fixed-size chunks, so memory is O(points +
    lines) instead of O(bounding box x facets).  A request of more than
    POINT_BUDGET (line, facet) pairs raises MalformedInput before anything
    is allocated, and one of more than POINT_BUDGET points before its
    points are; so does a polytope whose bounding box or facet system does
    not fit int64.
    """
    _require_bitmask_facets(P)
    lo_f, hi_f = P.bbox()
    lo = [math.ceil(c) for c in lo_f]
    hi = [math.floor(c) for c in hi_f]
    if any(h < l for l, h in zip(lo, hi)):
        return np.zeros((0, P.dim), np.int64), np.zeros(0, np.int64)
    extents = [h - l + 1 for l, h in zip(lo[:-1], hi[:-1])]
    lines = math.prod(extents)
    check_budget("lattice line-facet pairs", lines * P.n_facets)
    box = int64_array([lo, hi], "bounding-box coordinates")  # both corners bound the lines
    heads = np.indices(extents, dtype=np.int64).reshape(P.dim - 1, lines).T
    heads += box[0, :-1]
    A, c = integer_facet_system(P)
    lower, counts = _line_intervals(heads, A, c, lo[-1], hi[-1])
    check_budget("lattice points", int(counts.sum()))
    pts = line_points(heads, lower, counts)
    return pts, locate_points(P, pts, A, c)


def cycle_order(nodes: Iterable[int], pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The nodes of the single cycle whose edges are the given node pairs, in
    walking order: from the least node on to the first neighbour paired with
    it, then around."""
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    for v, nbrs in adj.items():
        if len(nbrs) != 2:
            raise AssertionError(f"node {v} has {len(nbrs)} neighbours on a cycle")
    start = min(adj)
    cycle = [start, adj[start][0]]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == start:
            break
        cycle.append(nxt)
    if len(cycle) != len(adj):
        raise AssertionError(f"cycle through {start} misses vertices")
    return cycle


def volume(P: Polytope) -> Fraction:
    """Euclidean volume of P, exact.

    Dimension 3 triangulates each facet polygon along its boundary cycle and
    cones the triangles over vertex 0; the resulting simplices are disjoint
    (those on facets through vertex 0 are flat), so absolute determinants
    can be summed.
    """
    if P._volume is not None:
        return P._volume
    if P.dim == 1:
        vol = Fraction(P.vertices[-1][0] - P.vertices[0][0])
    elif P.dim == 2:
        # The boundary of a polygon is a single cycle of its edges.
        cycle = cycle_order(range(len(P.vertices)), map(sorted, P.facet_vertex_ids))
        base = P.vertices[cycle[0]]
        vol = 0
        for a, b in zip(cycle[1:], cycle[2:]):
            u = P.vertices[a] - base
            w = P.vertices[b] - base
            vol += abs(u[0] * w[1] - u[1] * w[0])
        vol = Fraction(vol, 2)
    else:
        apex = P.vertices[0]
        edges = [f.vertex_ids for f in P.faces if f.dim == 1]
        vol = 0
        for vs in P.facet_vertex_ids:
            cycle = cycle_order(vs, (e for e in edges if vs.issuperset(e)))
            base = P.vertices[cycle[0]]
            z = base - apex
            for a, b in zip(cycle[1:], cycle[2:]):
                vol += abs(det3(P.vertices[a] - base, P.vertices[b] - base, z))
        vol = Fraction(vol, 6)
    P._volume = vol
    return vol


def translate(P: Polytope, shift: RationalVector) -> Polytope:
    """P + shift, sharing P's structure and angle weights."""
    if shift.dim != P.dim:
        raise DimensionMismatch("shift dimension differs from polytope dimension")
    offsets = tuple(
        _exact(b + sum(a * s for a, s in zip(normal, shift.coords)))
        for normal, b in zip(P.facet_normals, P.facet_offsets)
    )
    return _moved(P, tuple(v + shift for v in P.vertices), offsets)


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
