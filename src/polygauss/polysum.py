"""The weighted exponential sum G_P(n) over the n-th dilate of a lattice
polytope, by three routes.

Direct: count the lattice points of nP per face and residue of |x|^2 mod
n, as an integer table C[f, r]; then G_P(n) = sum_r (sum_f w_f C[f, r])
e(r / n), with w_f the solid angle of nP on face f.

Folded: fold every lattice point of nP to its representative z/n in the
wedge 0 <= x_1 <= ... <= x_d <= 1/2 (one per orbit of the
signed-permutation-plus-translation group); phases depend only on the
representative because the group preserves |x|^2 mod 1 after scaling, so
the direct route's table C[f, r] already counts every point at its
representative's phase, and the two routes share it and its value.

Tetrahedron formula: for minimal (volume 1/6) lattice tetrahedra the whole
sum collapses to dihedral angles times quadratic Gauss sums plus a small
correction kappa(n) supported on face-interior and interior points.

The direct and folded routes build C[f, r] by one of two exact paths over
the lattice lines of nP, parallel to the last axis.  The point path
materialises every point of a line and counts it.  The line path locates
only the two ends of each line and counts its interior points per residue
class: on the line through head h, |x|^2 = |h|^2 + t^2, so the interior
points of a line, all on one face, fall into whole periods of t mod n plus
one cyclic interval.  Its work is O(lines + rows * n) for the rows
(face, |h|^2 mod n) the lines meet, instead of O(points).  The line path
is taken when a dilate's interior points outnumber the cells of those rows
(_lines_pay), which holds on large dilates such as fund_tet at n >= 128
and never on the search's dilates at n <= 4.

No route holds all its lattice points or kappa terms at once: the point
path scans nP in runs of lines of about _COUNT_CHUNK points, the line path
in runs of about _COUNT_CHUNK line ends with its rows in chunks of about
_COUNT_CHUNK cells, and kappa generates its terms in runs of first
barycentric parts of about _COUNT_CHUNK terms; every run is counted into
the route's integer table at once.  Memory is O(chunk + lines + faces * n)
on either path, and the counts, hence the values, do not depend on the
path or on where the runs fall.

All phases are computed from exact integer residues mod n before any
trigonometry, and every sum is taken in a fixed order, so results are
deterministic: the direct and folded routes sum the weighted counts over
faces in order and the n residue classes under compensated summation
(math.fsum); the tetra route counts kappa's terms per residue, sums them
exactly, rounding once as math.fsum does, and adds the six dihedral terms
in a plain loop.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .angles import face_angle, tetrahedron_angles
from .errors import DegenerateTetrahedron, MalformedInput, VolumeNotMinimal
from .gauss import phase_table, quad_gauss_closed
from .geometry import (
    Polytope,
    RationalVector,
    check_budget,
    det3,
    dilate,
    face_joins,
    integer_points,
    lattice_lines,
    line_points,
    scan_lattice,
    volume,
)

ROUTE_DIRECT = "direct"
ROUTE_FOLDED = "folded"
ROUTE_TETRA = "tetra"

_NOT_LATTICE = (
    "polyhedral Gauss sums are defined for lattice polytopes (integer vertices)"
)


@dataclass(frozen=True)
class GaussSumReport:
    """One evaluation of G_P(n): the complex value, which route produced it,
    how many points the route enumerated, and the residual against the
    closed form vol(P) G(n)^d."""

    n: int
    value: complex
    route: str
    point_count: int
    residual: complex

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "re": self.value.real,
            "im": self.value.imag,
            "route": self.route,
            "point_count": self.point_count,
            "residual_re": self.residual.real,
            "residual_im": self.residual.imag,
        }


def _check_n(n: int, what: str) -> None:
    """Raise MalformedInput unless n is an integer >= 1; numpy integers
    count, bools do not."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise MalformedInput(f"{what} must be an integer, got {n}")
    if n < 1:
        raise MalformedInput(f"{what} must be >= 1, got {n}")


# Points or kappa terms whose residues are held at once while counting.
# Runs of them are cut at multiples of a chunk never shorter than the table
# they are counted into, so there are at most points / table + 1 runs and
# counting stays O(points + table) however the runs fall.
_COUNT_CHUNK = 1 << 16


def _runs(sizes: np.ndarray, cells: int) -> list[tuple[int, int]]:
    """Consecutive index ranges [start, stop) covering the items of the given
    sizes, at least one: the k-th closes at the first item where the running
    total reaches k chunks of max(_COUNT_CHUNK, cells), so a run holds less
    than a chunk before its last item."""
    chunk = max(_COUNT_CHUNK, cells)
    total = sizes.cumsum()
    if not len(sizes) or total[-1] <= chunk:
        return [(0, len(sizes))]
    ends = total.searchsorted(np.arange(chunk, total[-1], chunk)) + 1
    return list(itertools.pairwise(np.unique([0, *ends, len(sizes)]).tolist()))


def _point_table(pts: np.ndarray, fids: np.ndarray, n: int, size: int, reduce: bool) -> np.ndarray:
    """The flat table C[f, r] of the given points with their face ids."""
    x = pts % n if reduce else pts
    return np.bincount(fids * n + np.einsum("ij,ij->i", x, x) % n, minlength=size)


def _lines_pay(counts: np.ndarray, faces: int, n: int) -> bool:
    """Whether the line path pays on lines of the given point counts: the
    interior points it skips outnumber the cells it fills, n for each row
    (face, |h|^2 mod n), of which there are at most one per line of three
    or more points and at most faces * n."""
    inner = np.maximum(counts - 2, 0)
    return int(inner.sum()) > min(np.count_nonzero(inner), faces * n) * n


def _table_by_points(Q: Polytope, lines, n: int, reduce: bool) -> np.ndarray:
    """C[f, r] of nP = Q, flat, from its points, scanned in runs of lines
    holding about a chunk of points each."""
    size = len(Q.faces) * n
    table = None  # the first run's table is kept, not copied
    for s, e in _runs(lines[2], size):
        part = _point_table(*scan_lattice(Q, tuple(a[s:e] for a in lines)), n, size, reduce)
        table = part if table is None else table + part
    return table


def _table_by_lines(Q: Polytope, lines, n: int, reduce: bool) -> np.ndarray:
    """C[f, r] of nP = Q, flat, from its lines, without their interior points.

    On the line through head h the points x = (h, t) have |x|^2 = |h|^2 +
    t^2, so a point's residue depends only on sigma = |h|^2 mod n and
    rho = t mod n.  The lines are taken in runs holding about a chunk of
    ends and interiors, three for a line of three or more points.  In each
    run both ends of every line are located and counted as points, by
    scan_lattice on one-point lines; the points between lie on the face
    joining the ends' faces (see scan_lattice), and _count_interiors counts
    them per line.
    """
    heads, lower, counts = lines
    size = len(Q.faces) * n
    table = np.zeros(size, dtype=np.int64)
    for s, e in _runs(np.minimum(counts, 3), size):
        h, a, k = heads[s:e], lower[s:e], counts[s:e]
        two = k > 1  # a one-point line has no last point of its own
        part, first = _located(Q, h, a, n, size, reduce)
        table += part
        part, last = _located(Q, h[two], (a + k - 1)[two], n, size, reduce)
        table += part
        long = k[two] > 2
        inner = two.nonzero()[0][long]
        faces = face_joins(Q, first[inner], last[long])
        _count_interiors(table, faces, h[inner] % n, a[inner] + 1, k[inner] - 2, n)
    return table


def _located(
    Q: Polytope, heads: np.ndarray, t: np.ndarray, n: int, size: int, reduce: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The flat table C[f, r] of the lattice points (h, t) of Q, one per row
    h of `heads`, and their faces."""
    pts, fids = scan_lattice(Q, (heads, t, np.ones(len(t), dtype=np.int64)))
    return _point_table(pts, fids, n, size, reduce), fids


def _count_interiors(
    table: np.ndarray, faces: np.ndarray, heads: np.ndarray, lower: np.ndarray, counts: np.ndarray, n: int
) -> None:
    """Add to the flat table C[f, r] the points (h, t), t = lower ..
    lower + count - 1, of each line, all on the line's face; `heads` are
    reduced mod n.

    A line's points have rho = t mod n in count // n whole periods plus a
    cyclic interval of count % n classes.  Each line adds them to the row
    (face, sigma) of a difference table over rho, which a cumulative sum
    turns into counts per rho, and each row folds onto its residues
    r = sigma + rho^2 mod n.  Rows are built in chunks of at most
    max(1, _COUNT_CHUNK // (n + 1)), only those some line meets.  Counts
    stay below the point budget, 2^24, so bincount's float sums are exact.
    """
    key = faces * n + np.einsum("ij,ij->i", heads, heads) % n
    order = key.argsort()
    key = key[order]
    new = np.ones(len(key), dtype=bool)  # the first line of each row in key order
    new[1:] = key[1:] != key[:-1]
    rows, row = key[new], new.cumsum() - 1
    start = lower[order] % n
    periods, rest = np.divmod(counts[order], n)
    squares = np.arange(n, dtype=np.int64) ** 2 % n
    step = max(1, _COUNT_CHUNK // (n + 1))
    for r0 in range(0, len(rows), step):
        r1 = min(r0 + step, len(rows))
        s, e = row.searchsorted([r0, r1])
        local = row[s:e] - r0
        base = local * (n + 1)
        stop = start[s:e] + rest[s:e]
        wrap = stop > n
        cells = (r1 - r0) * (n + 1)
        diff = np.bincount(base + start[s:e], minlength=cells)  # [start, stop) within 0 .. n
        diff -= np.bincount(base + np.minimum(stop, n), minlength=cells)
        diff += np.bincount(base[wrap], minlength=cells)  # [0, stop - n) past the wrap
        diff -= np.bincount(base[wrap] + stop[wrap] - n, minlength=cells)
        per_rho = diff.reshape(r1 - r0, n + 1)[:, :n].cumsum(axis=1)
        per_rho += np.bincount(local, weights=periods[s:e], minlength=r1 - r0).astype(np.int64)[:, None]
        sigma = rows[r0:r1] % n
        residue = (sigma[:, None] + squares) % n + (rows[r0:r1] - sigma)[:, None]
        table += np.bincount(residue.ravel(), weights=per_rho.ravel(), minlength=len(table)).astype(np.int64)


def _counted_sum(
    P: Polytope, n: int, by_lines: bool | None = None
) -> tuple[complex, np.ndarray, int]:
    """G_P(n) for a lattice polytope P, the int64 table C[f, r] of the
    lattice points x of nP on face f with |x|^2 = r mod n, and their number.

    The table comes from one of two exact paths over the lattice lines of
    nP, which give equal tables.  The point path (_table_by_points) scans
    runs of lines holding about _COUNT_CHUNK points each and counts every
    point.  The line path (_table_by_lines) locates only the two ends of
    each line and counts its interior points per residue class of the last
    coordinate, in O(lines + rows * n) work.  The line path is taken when
    the interior points outnumber the cells of the rows it fills
    (_lines_pay): on large dilates, whose many lines share a few rows, not
    on the search's dilates at n <= 4.  `by_lines` forces a path.  Either
    way memory is O(chunk + lines + faces * n).  The value sums w_f C[f, r]
    over the faces f in order, w_f the solid angle, then the residue
    classes' phases by math.fsum."""
    verts = integer_points(P.vertices, _NOT_LATTICE)
    _check_n(n, "dilation factor")
    Q = dilate(P, n)
    lines = lattice_lines(Q)
    # |x|^2 mod n depends only on x mod n, and reduced coordinates are below
    # n, so their squared norms stay far inside int64
    reduce = P.dim * (n * max(abs(c) for v in verts for c in v)) ** 2 >= 1 << 63
    if by_lines is None:
        by_lines = _lines_pay(lines[2], len(Q.faces), n)
    count = _table_by_lines if by_lines else _table_by_points
    counts = count(Q, lines, n, reduce).reshape(-1, n)
    weights = np.array([face_angle(Q, fid) for fid in range(len(Q.faces))])
    acc = np.einsum("f,fr->r", weights, counts).tolist()  # no BLAS, no (faces, n) copy
    table = phase_table(n)
    re = math.fsum(acc[k] * table[k].real for k in range(n))
    im = math.fsum(acc[k] * table[k].imag for k in range(n))
    return complex(re, im), counts, int(lines[2].sum())


def closed_form_value(P: Polytope, n: int) -> complex:
    """vol(P) G(n)^d, the value the sum takes on multi-tiling polytopes."""
    return float(volume(P)) * quad_gauss_closed(1, n) ** P.dim


def polyhedral_gauss_sum_direct(P: Polytope, n: int) -> GaussSumReport:
    """G_P(n) by enumerating the lattice points of the dilate nP, counted
    per face and residue class of |x|^2 mod n."""
    value, _, points = _counted_sum(P, n)
    return GaussSumReport(n, value, ROUTE_DIRECT, points, value - closed_form_value(P, n))


def polyhedral_gauss_sum_folded(P: Polytope, n: int) -> GaussSumReport:
    """G_P(n) by summing over one representative per symmetry orbit.

    Representatives are the points z/n with integer z in the sorted wedge
    0 <= z_1 <= ... <= z_d <= n/2: each orbit of the signed-permutation and
    integer-translation group meets the closed wedge exactly once.  Every
    scanned point x of nP folds to its representative by z = x mod n,
    z = min(z, n - z) and sorting, none of which moves |x|^2 mod n; so the
    phase e(|z|^2 / n), well defined on the orbit because the group
    preserves norms mod the lattice, is x's own, and the value is the
    direct route's count table summed.  The point count reported is the
    number of representatives.
    """
    value = _counted_sum(P, n)[0]
    count = math.comb(n // 2 + P.dim, P.dim)
    return GaussSumReport(n, value, ROUTE_FOLDED, count, value - closed_form_value(P, n))


class _MinimalVertices(tuple):
    """Four int-tuple vertices already checked to span volume exactly 1/6."""


def _minimal_tetrahedron(points: Sequence) -> _MinimalVertices:
    """The four vertices as int tuples, checked to span volume exactly 1/6;
    vertices it returned pass again unchecked."""
    if isinstance(points, _MinimalVertices):
        return points
    pts = integer_points(points, "tetrahedron formula needs integer vertices")
    if len(pts) != 4 or any(len(p) != 3 for p in pts):
        raise DegenerateTetrahedron("need exactly 4 integer points in dimension 3")
    det = det3(*(tuple(x - y for x, y in zip(pts[k], pts[0])) for k in (1, 2, 3)))
    if det == 0:
        raise DegenerateTetrahedron("zero signed volume")
    if abs(det) != 1:
        raise VolumeNotMinimal(
            f"edge-vector determinant is {det}, need +-1 (volume 1/6)"
        )
    return _MinimalVertices(pts)


def _kappa_parts(n: int, first: range) -> tuple[np.ndarray, int]:
    """The terms of kappa(n) whose first positive barycentric part a lies in
    `first`, a range inside 1 .. n - 2, as rows of their parts on v_0, v_1,
    v_2 (the part on v_3 is n minus the row's sum): those on the four faces,
    then the interior ones; and the number of face rows.  Rows are written
    into the table in place, (a, b) and (a, b, c) in lexicographic order."""
    a = np.arange(first.start, first.stop, dtype=np.int64)
    ones = np.ones(len(a), dtype=np.int64)
    pairs = line_points(a[:, None], ones, n - 2 - a)  # (a, b) leaving c, d >= 1
    room = n - 1 - pairs.sum(axis=1)  # c = 1 .. n - a - b - 1
    m = int((n - 1 - a).sum())  # b = 1 .. n - a - 1 on a face
    parts = np.zeros((4 * m + int(room.sum()), 3), dtype=np.int64)
    tri = line_points(a[:, None], ones, n - 1 - a, out=parts[:m, :2])
    parts[:m, 2] = n - tri.sum(axis=1)  # the face off v_3, (a, b, c, 0)
    parts[m : 2 * m, :2] = tri  # off v_2, (a, b, 0, c)
    parts[2 * m : 3 * m, ::2] = tri  # off v_1, (a, 0, b, c)
    parts[3 * m : 4 * m, 1:] = tri  # off v_0, (0, a, b, c)
    line_points(pairs, np.ones(len(pairs), dtype=np.int64), room, out=parts[4 * m :])
    parts.setflags(write=False)  # cached tables are shared between calls
    return parts, 4 * m


# kappa is called once per (tetrahedron, n) and the search repeats n = 1..4
# for every orbit, so the tables for n <= 32 (at most 0.15 MB each, one run
# of terms) are kept.
_CACHED_KAPPA_N = 32


@lru_cache(maxsize=_CACHED_KAPPA_N)
def _cached_kappa_parts(n: int) -> tuple[np.ndarray, int]:
    return _kappa_parts(n, range(1, n - 1))


def kappa(points: Sequence, n: int) -> complex:
    """The correction term of the tetrahedron formula: phase sums over the
    face-interior and interior lattice points of the dilate, expressed by
    positive integer barycentric weights,

        kappa(n) = 1/2 sum_{faces ijk} sum_{a+b+c=n, >0} e(|a v_i + b v_j + c v_k|^2 / n)
                 + sum_{a+b+c+d=n, >0} e(|a v_0 + b v_1 + c v_2 + d v_3|^2 / n).

    That these terms exhaust the non-edge points of nT is exactly the
    minimal-volume property, so volume 1/6 is enforced.  A term's weights
    sum to n, so its point is a v_0 + b v_1 + c v_2 + d v_3 =
    a u_0 + b u_1 + c u_2 + n v_3 with u_i = v_i - v_3, and its residue
    mod n needs only the first three parts.  Terms are generated in runs of
    first parts holding about _COUNT_CHUNK terms each, and every run's
    residues come from one integer matrix product and are counted per
    residue.  Each of the four sums is the exact sum of its counted terms
    rounded once, the value math.fsum of the terms gives."""
    _check_n(n, "modulus")
    pts = _minimal_tetrahedron(points)
    if n < 3:  # no composition of n into three positive parts
        return complex(0.0, 0.0)
    check_budget("kappa terms", 4 * math.comb(n - 1, 2) + math.comb(n - 1, 3))
    if n <= _CACHED_KAPPA_N:
        tables = [_cached_kappa_parts(n)]
    else:
        k = n - 1 - np.arange(1, n - 1)  # n - a - 1 for each first part a
        runs = _runs(k * (k + 7) // 2, 2 * n)  # 4 (n - a - 1) + C(n - a - 1, 2) terms
        tables = (_kappa_parts(n, range(s + 1, e + 1)) for s, e in runs)
    # |x|^2 mod n depends only on x mod n, and reduced edge vectors keep
    # every product below 3 n^4, far inside int64 for any n under the budget.
    u = np.array([[(c - d) % n for c, d in zip(p, pts[3])] for p in pts[:3]], dtype=np.int64)
    counts = None  # the first run's table is kept, not copied
    for parts, face_rows in tables:
        x = parts @ u
        residues = np.einsum("ij,ij->i", x, x) % n
        residues[face_rows:] += n  # interior terms count in the second half
        part = np.bincount(residues, minlength=2 * n)
        counts = part if counts is None else counts + part
    counts = counts.tolist()
    table = phase_table(n)
    sums = []
    for values in ([z.real for z in table], [z.imag for z in table]):
        # exact integers over the largest power-of-two denominator; int / int rounds once
        ratios = [v.as_integer_ratio() for v in values]
        den = max(q for _, q in ratios)
        nums = [p * (den // q) for p, q in ratios]
        sums += [sum(map(operator.mul, half, nums)) / den for half in (counts[:n], counts[n:])]
    face_re, inner_re, face_im, inner_im = sums
    return complex(0.5 * face_re + inner_re, 0.5 * face_im + inner_im)


def tetra_gauss_sum_formula(points: Sequence, n: int) -> GaussSumReport:
    """G_T(n) for a minimal lattice tetrahedron, assembled from boundary
    structure alone:

        G_T(n) = -1 + sum_{i<j} w_ij G(n_ij, n) + kappa(n)

    with w_ij the dihedral angles, n_ij the squared edge lengths, and G the
    quadratic Gauss sum in closed form."""
    _check_n(n, "dilation factor")
    pts = _minimal_tetrahedron(points)
    ta = tetrahedron_angles([RationalVector(p) for p in pts])
    value = complex(-1.0, 0.0)
    for (i, j), w in sorted(ta.dihedral.items()):
        value += w * quad_gauss_closed(int(ta.sq_lengths[(i, j)]), n)
    value += kappa(pts, n)  # kappa takes checked vertices as they are
    count = math.comb(n + 3, 3)
    residual = value - quad_gauss_closed(1, n) ** 3 / 6
    return GaussSumReport(
        n=n,
        value=value,
        route=ROUTE_TETRA,
        point_count=count,
        residual=residual,
    )
