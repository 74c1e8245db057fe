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

No route holds all its lattice points or kappa terms at once: the direct
and folded routes scan nP in runs of lattice lines and kappa generates its
terms in runs of first barycentric parts, each run about _COUNT_CHUNK long,
and every run is counted into the route's integer table at once.  Memory
is O(chunk + lines + faces * n), and the counts, hence the values, do not
depend on where the runs fall.

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


def _counted_sum(P: Polytope, n: int) -> tuple[complex, np.ndarray, int]:
    """G_P(n) for a lattice polytope P, the int64 table C[f, r] of the
    lattice points x of nP on face f with |x|^2 = r mod n, and their number.
    nP is scanned in runs of lattice lines holding about _COUNT_CHUNK points
    each, so memory is O(chunk + lines + faces * n).  The value sums
    w_f C[f, r] over the faces f in order, w_f the solid angle, then the
    residue classes' phases by math.fsum."""
    verts = integer_points(P.vertices, _NOT_LATTICE)
    _check_n(n, "dilation factor")
    Q = dilate(P, n)
    lines = lattice_lines(Q)
    # |x|^2 mod n depends only on x mod n, and reduced coordinates are below
    # n, so their squared norms stay far inside int64
    reduce = P.dim * (n * max(abs(c) for v in verts for c in v)) ** 2 >= 1 << 63
    size = len(Q.faces) * n
    counts = None  # the first run's table is kept, not copied
    points = 0
    for s, e in _runs(lines[2], size):
        pts, fids = scan_lattice(Q, tuple(a[s:e] for a in lines))
        x = pts % n if reduce else pts
        part = np.bincount(fids * n + np.einsum("ij,ij->i", x, x) % n, minlength=size)
        counts = part if counts is None else counts + part
        points += len(pts)
    counts = counts.reshape(-1, n)
    weights = np.array([face_angle(Q, fid) for fid in range(len(Q.faces))])
    acc = np.einsum("f,fr->r", weights, counts).tolist()  # no BLAS, no (faces, n) copy
    table = phase_table(n)
    re = math.fsum(acc[k] * table[k].real for k in range(n))
    im = math.fsum(acc[k] * table[k].imag for k in range(n))
    return complex(re, im), counts, points


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


def _minimal_tetrahedron(points: Sequence) -> list[tuple[int, ...]]:
    """The four vertices as int tuples, checked to span volume exactly 1/6."""
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
    return pts


def compositions(n: int, parts: int, first: range | None = None) -> np.ndarray:
    """The compositions of n into `parts` positive parts, one per row of an
    int64 array, in lexicographic order; with `first`, only those whose
    first part lies in that range."""
    rows = np.zeros((1, 0), dtype=np.int64)
    for later in range(parts - 1, 0, -1):  # parts still to come after this one
        room = np.maximum(n - rows.sum(axis=1) - later, 0)
        rows = line_points(rows, np.ones(len(rows), dtype=np.int64), room)
        if first is not None and later == parts - 1:
            rows = rows[first.start - 1 : first.stop - 1]  # row i starts with i + 1
    return np.column_stack([rows, n - rows.sum(axis=1)])


def _kappa_parts(n: int, first: range) -> tuple[np.ndarray, int]:
    """The terms of kappa(n) whose first positive barycentric part lies in
    `first`, as rows of their parts on v_0, v_1, v_2 (the part on v_3 is n
    minus the row's sum): those on the four faces, then the interior ones;
    and the number of face rows."""
    tri = compositions(n, 3, first)[:, :2]
    quad = compositions(n, 4, first)[:, :3]
    m = len(tri)
    parts = np.zeros((4 * m + len(quad), 3), dtype=np.int64)
    parts[:m, :2] = tri  # the face off v_3, (a, b, c, 0)
    parts[:m, 2] = n - tri.sum(axis=1)
    parts[m : 2 * m, :2] = tri  # off v_2, (a, b, 0, c)
    parts[2 * m : 3 * m, ::2] = tri  # off v_1, (a, 0, b, c)
    parts[3 * m : 4 * m, 1:] = tri  # off v_0, (0, a, b, c)
    parts[4 * m :] = quad
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
    value += kappa(points, n)
    count = math.comb(n + 3, 3)
    residual = value - quad_gauss_closed(1, n) ** 3 / 6
    return GaussSumReport(
        n=n,
        value=value,
        route=ROUTE_TETRA,
        point_count=count,
        residual=residual,
    )
