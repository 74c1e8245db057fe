"""The weighted exponential sum G_P(n) over the n-th dilate of a lattice
polytope, by two routes.

Direct: count the lattice points of nP per face and residue of |x|^2 mod
n, as an integer table C[f, r]; then G_P(n) = sum_r (sum_f w_f C[f, r])
e(r / n), with w_f the solid angle of nP on face f.

Tetrahedron formula: for minimal (volume 1/6) lattice tetrahedra the whole
sum collapses to dihedral angles times quadratic Gauss sums plus a small
correction kappa(n) supported on face-interior and interior points, whose
terms are counted from the Gram form of the edge vectors over one triangle
of barycentric parts (a, b) ordered by a + b: the interior terms with
third part c are a prefix of it, one pass per c.

The direct route builds C[f, r] with one counter (_counted_sums), which
takes every n at once, as the search's relation test does at n = 1, 2,
3, 4, and dilates P once, by M = lcm(ns).  For n | M the lattice points
of nP are the points y of MP whose coordinates M/n divides, y / (M/n) on
the face of the same id, and a single n is the case M = n, where every
point counts.  geometry.lattice_lines visits only the heads under MP's
shadow and gives each line with the faces of its first point, its last
point and the points between, so no point is located.  A dilate of at
most _LINE_PATH_POINTS = 2^13 lattice points, such as every dilate of
the search, takes the point path: one scan_lattice call materialises
every point with its face, and one bincount per n counts those whose
coordinates M/n divides.  Several n share MP only where Blichfeldt's
bound keeps it there (d! vol(P) M^d + d <= 2^13 lattice points) and
lattice_lines accepts it; otherwise each n is counted on its own dilate,
and the tables are equal either way.  So only a single n can take the
line path, on a larger dilate, which counts the two ends of each line
from their coordinates and its interior points per residue class: on the
line through head h, |x|^2 = |h|^2 + t^2, so the interior points of a
line, all on one face, are counted per rho = t mod n from the prefix
counts of t.  Its work is O(lines + rows * n) for the rows (face, |h|^2
mod n) the lines meet, instead of O(points).  The threshold is the
measured crossover of the two paths (see _LINE_PATH_POINTS).

No route holds all its lattice points or kappa terms at once: the point
path holds at most 2^13 points, the line path takes its lines in runs of
about _COUNT_CHUNK line ends with its rows in chunks of about
_COUNT_CHUNK cells, each counted into the route's integer table at once,
and kappa holds one triangle of parts.  Memory is O(chunk + lines +
faces * n) on either path and O(n^2) for kappa; the counts, hence the
values, do not depend on the path or on where the runs fall.

All phases are computed from exact integer residues mod n before any
trigonometry, and every sum is taken in a fixed order, so results are
deterministic: the direct route sums the weighted counts over faces in
order and the n residue classes under compensated summation (math.fsum);
the tetra route counts kappa's terms per residue, sums them
exactly, rounding once as math.fsum does, and adds the six dihedral terms
in a plain loop.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .angles import face_angle, tetrahedron_angles
from .errors import DegenerateTetrahedron, MalformedInput, VolumeNotMinimal
from .gauss import phase_table, quad_gauss_closed
from .geometry import (
    Polytope,
    check_budget,
    check_positive_int,
    det3,
    dilate,
    integer_points,
    lattice_lines,
    line_points,
    scan_lattice,
    volume,
)

ROUTE_DIRECT = "direct"
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


# Line ends whose residues are held at once while counting.
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


def _table_by_lines(Q: Polytope, lines, n: int) -> np.ndarray:
    """C[f, r] of nP = Q, flat, from its lines, without their interior points.

    On the line through head h the points x = (h, t) have |x|^2 = |h|^2 +
    t^2, so a point's residue depends only on sigma = |h|^2 mod n and
    rho = t mod n.  The lines are taken in runs holding about a chunk of
    ends and interiors, three for a line of three or more points.  In each
    run the first point of every line and the last of every line of two or
    more are counted from their (h, t) on the faces lattice_lines gives
    them, and _count_interiors counts the points between on theirs.
    """
    heads, lower, counts, faces = lines
    size = len(Q.faces) * n
    table = np.zeros(size, dtype=np.int64)
    for s, e in _runs(np.minimum(counts, 3), size):
        h, a, k, f = heads[s:e] % n, lower[s:e], counts[s:e], faces[:, s:e]
        sigma = np.einsum("ij,ij->i", h, h) % n
        t = np.stack([a, a + k - 1]) % n  # of the first and the last point
        ends = f[:2] * n + (sigma + t * t) % n
        # a one-point line has no last point of its own
        table += np.bincount(np.append(ends[0], ends[1][k > 1]), minlength=size)
        del h, t, ends  # not held while the interiors are counted
        inner = k > 2
        _count_interiors(table, (f[2] * n + sigma)[inner], a[inner] + 1, k[inner] - 2, n)
    return table


def _count_interiors(table: np.ndarray, key: np.ndarray, lower: np.ndarray, counts: np.ndarray, n: int) -> None:
    """Add to the flat table C[f, r] the points (h, t), t = lower ..
    lower + count - 1, of each line, all on one face f; a line's key is
    f * n + sigma with sigma = |h|^2 mod n.

    For integers lo <= hi, #{t in [lo, hi) : t = rho mod n} is
    (hi // n - lo // n) + [rho < hi % n] - [rho < lo % n], so each row
    (face, sigma) counts its lines per rho as the sum of their whole
    periods less a cumulative sum over rho of the histogram of hi % n
    minus that of lo % n; each row folds onto its residues r = sigma +
    rho^2 mod n.  Rows are built in chunks of at most max(1, _COUNT_CHUNK
    // n), only those some line meets.  Counts stay below the point
    budget, 2^24, so bincount's float sums are exact.
    """
    order = key.argsort()
    rows, row = np.unique(key[order], return_inverse=True)  # row ids ascend in key order
    lo = lower[order]
    hi = lo + counts[order]
    periods = hi // n - lo // n
    lo %= n
    hi %= n
    squares = np.arange(n, dtype=np.int64) ** 2 % n
    step = max(1, _COUNT_CHUNK // n)
    for r0 in range(0, len(rows), step):
        r1 = min(r0 + step, len(rows))
        s, e = row.searchsorted([r0, r1])
        local = row[s:e] - r0
        cells = (r1 - r0) * n
        partial = np.bincount(local * n + hi[s:e], minlength=cells)
        partial -= np.bincount(local * n + lo[s:e], minlength=cells)
        whole = np.bincount(local, weights=periods[s:e], minlength=r1 - r0).astype(np.int64)
        per_rho = whole[:, None] - partial.reshape(r1 - r0, n).cumsum(axis=1)
        sigma = rows[r0:r1] % n
        residue = (sigma[:, None] + squares) % n + (rows[r0:r1] - sigma)[:, None]
        table += np.bincount(residue.ravel(), weights=per_rho.ravel(), minlength=len(table)).astype(np.int64)


# The most lattice points a dilate may have for the direct route to take
# the point path: one scan_lattice call over all its lines and one
# bincount.  Larger dilates take the line path.  This is the
# measured crossover; direct calls, ms, point path / line path,
# interleaved medians of 41 on a 2-CPU Xeon VM (Python 3.11, numpy 2.4):
# fund_tet at n = 24 (2,925 points) 0.32 / 0.38, n = 32 (6,545)
# 0.45 / 0.44, n = 40 (12,341) 0.58 / 0.43; the unit cube at n = 16
# (4,913) 0.40 / 0.40, n = 20 (9,261) 0.52 / 0.43; the unit square at
# n = 64 (4,225) 0.26 / 0.27, n = 90 (8,281) 0.37 / 0.31, n = 128
# (16,641) 0.70 / 0.34.  Below _COUNT_CHUNK, so the point path needs no
# runs.
_LINE_PATH_POINTS = 1 << 13


def _weighted_value(weights: np.ndarray, counts: np.ndarray, n: int) -> complex:
    """sum_r (sum_f w_f C[f, r]) e(r / n): the faces in order, then the
    residue classes' phases by math.fsum."""
    acc = np.einsum("f,fr->r", weights, counts).tolist()  # no BLAS, no (faces, n) copy
    table = phase_table(n)
    re = math.fsum(acc[k] * table[k].real for k in range(n))
    im = math.fsum(acc[k] * table[k].imag for k in range(n))
    return complex(re, im)


def _counted_sums(P: Polytope, ns: Sequence[int], vol: Fraction) -> dict[int, tuple[complex, np.ndarray, int]]:
    """For each of the distinct moduli ns, G_P(n) of a lattice polytope P of
    volume vol, the int64 table C[f, r] of the lattice points x of nP on
    face f with |x|^2 = r mod n, and their number, read off the one dilate
    M = lcm(ns) P as the module docstring describes, with the face weights
    of MP formed once.  For a single n, M = n and lattice_lines' refusals
    propagate; several n fall back to one call per n where Blichfeldt's
    bound or lattice_lines refuses MP, so sharing never refuses what the
    per-n scans accept.
    """
    M, d = math.lcm(*ns), P.dim
    lines = None
    if len(ns) == 1 or math.factorial(d) * vol * M**d + d <= _LINE_PATH_POINTS:
        Q = dilate(P, M)
        try:
            lines = lattice_lines(Q)
        except MalformedInput:  # MP's box or numbers may exceed each nP's
            if len(ns) == 1:
                raise
    if lines is None:
        return {n: _counted_sums(P, (n,), vol)[n] for n in ns}
    faces = len(Q.faces)
    if lines[2].sum() > _LINE_PATH_POINTS:  # a single n: M = n
        tables = {M: _table_by_lines(Q, lines, M)}
    else:
        pts, fids = scan_lattice(Q, lines)
        # a point y = k x of MP, k = M / n, has y mod M = k (x mod n): k
        # divides the gcd of its coordinates mod M, and |y mod M|^2 =
        # k^2 |x mod n|^2; y mod M keeps the squares within int64
        y = np.remainder(pts, M, out=pts)
        norms = np.einsum("ij,ij->i", y, y)
        common = np.gcd.reduce(y, axis=1) if len(ns) > 1 else None
        tables = {}
        for n in ns:
            k = M // n
            on = slice(None) if k == 1 else common % k == 0
            tables[n] = np.bincount(fids[on] * n + norms[on] // (k * k) % n, minlength=faces * n)
    weights = np.array([face_angle(Q, fid) for fid in range(faces)])
    sums = {}
    for n, table in tables.items():
        counts = table.reshape(-1, n)
        sums[n] = _weighted_value(weights, counts, n), counts, int(table.sum())
    return sums


def polyhedral_gauss_sum_direct(P: Polytope, n: int) -> GaussSumReport:
    """G_P(n) by enumerating the lattice points of the dilate nP, counted
    per face and residue class of |x|^2 mod n."""
    return polyhedral_gauss_sums_direct(P, (n,))[0]


def polyhedral_gauss_sums_direct(P: Polytope, ns: Sequence[int]) -> tuple[GaussSumReport, ...]:
    """polyhedral_gauss_sum_direct(P, n) for each n in ns, in order, from
    one scan of the common dilate lcm(ns) P where _counted_sums takes it,
    and from each n's own dilate otherwise; the reports are the same either
    way."""
    if P.denominator != 1:
        raise MalformedInput(_NOT_LATTICE)
    ns = tuple(ns)
    for n in ns:
        check_positive_int(n, "dilation factor")
    ns = [operator.index(n) for n in ns]
    vol = volume(P)
    sums = _counted_sums(P, tuple(dict.fromkeys(ns)), vol) if ns else {}
    return tuple(
        GaussSumReport(
            n, sums[n][0], ROUTE_DIRECT, sums[n][2], sums[n][0] - float(vol) * quad_gauss_closed(1, n) ** P.dim
        )
        for n in ns
    )


# Only perfbench's sum-large-n and smoke ops still call this name; ROADMAP
# item 8 deletes it together with those ops.
polyhedral_gauss_sum_folded = polyhedral_gauss_sum_direct


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


@lru_cache(maxsize=4)
def _triangle(n: int) -> tuple[np.ndarray, list[tuple[list[int], int]]]:
    """The monomials a^2, ab, b^2, a, b, 1 mod n, one row each, over the
    triangle a, b >= 1, a + b <= n - 1 ordered by a + b, then a, so the
    (a, b) with a + b <= m are its first C(m, 2) columns; and the real and
    the imaginary parts of the phases e(k / n), each as exact integer
    numerators over their largest power-of-two denominator.  Kept, since
    the search calls kappa at n = 3 and 4 for every orbit."""
    s = np.arange(2, n, dtype=np.int64)
    sa = line_points(s[:, None], np.ones(len(s), dtype=np.int64), s - 1)  # rows (a + b, a)
    a, b = sa[:, 1], sa[:, 0] - sa[:, 1]
    mono = np.stack([a * a, a * b, b * b, a, b, np.ones_like(a)]) % n
    mono.setflags(write=False)  # shared between calls
    table, phases = phase_table(n), []
    for values in ([z.real for z in table], [z.imag for z in table]):
        ratios = [v.as_integer_ratio() for v in values]
        den = max(q for _, q in ratios)
        phases.append(([p * (den // q) for p, q in ratios], den))
    return mono, phases


def kappa(points: Sequence, n: int) -> complex:
    """The correction term of the tetrahedron formula: phase sums over the
    face-interior and interior lattice points of the dilate, expressed by
    positive integer barycentric weights,

        kappa(n) = 1/2 sum_{faces ijk} sum_{a+b+c=n, >0} e(|a v_i + b v_j + c v_k|^2 / n)
                 + sum_{a+b+c+d=n, >0} e(|a v_0 + b v_1 + c v_2 + d v_3|^2 / n).

    That these terms exhaust the non-edge points of nT is exactly the
    minimal-volume property, so volume 1/6 is enforced.  A term's weights
    sum to n, so its point is a u_0 + b u_1 + c u_2 + n v_3 with
    u_i = v_i - v_3, and its residue mod n is p^T g p for its first three
    parts p = (a, b, c) and g = U U^T mod n.  Over the triangle a, b >= 1,
    a + b <= n - 1 the faces' parts are (a, b, -a-b), (a, b, 0), (a, 0, b)
    and (0, a, b); the interior terms with third part c are its C(n-1-c, 2)
    points with a + b <= n - 1 - c, a prefix when it is ordered by a + b,
    at residues S + c L + g_22 c^2, S the (a, b, 0) form and
    L = 2 (g_02 a + g_12 b).  One matrix product over the triangle's
    monomials gives the faces' residues, the interior's at c = 1 and their
    step L + 3 g_22 to c = 2; each further c is one pass over its prefix
    adding the step, which grows by 2 g_22 per pass, so memory is O(n^2).
    Each of the four sums is the exact sum of its terms counted per
    residue, rounded once, the value math.fsum of the terms gives."""
    check_positive_int(n, "modulus")
    pts = _minimal_tetrahedron(points)
    if n < 3:  # no composition of n into three positive parts
        return complex(0.0, 0.0)
    check_budget("kappa terms", 4 * math.comb(n - 1, 2) + math.comb(n - 1, 3))
    # Gram entries of the edge vectors reduced mod n, below 3 n^2: residues
    # are formed below 40 n^3, far inside int64 for any n under the budget.
    u = [[(x - y) % n for x, y in zip(p, pts[3])] for p in pts[:3]]
    g00, g01, g02, g11, g12, g22 = [
        p[0] * q[0] + p[1] * q[1] + p[2] * q[2]
        for p, q in itertools.combinations_with_replacement(u, 2)
    ]
    forms = np.array(
        [
            g00 - 2 * g02 + g22, 2 * (g01 - g02 - g12 + g22), g11 - 2 * g12 + g22, 0, 0, 0,
            g00, 2 * g01, g11, 0, 0, 0,
            g00, 2 * g02, g22, 0, 0, 0,
            g11, 2 * g12, g22, 0, 0, 0,
            g00, 2 * g01, g11, 2 * g02, 2 * g12, g22,  # S + L + g_22, the interior at c = 1
            0, 0, 0, 2 * g02, 2 * g12, 3 * g22,  # its step L + (2c + 1) g_22 to c + 1
        ],
        dtype=np.int64,
    ).reshape(6, 6)  # one flat list builds faster than nested rows
    mono, phases = _triangle(n)
    residues = forms @ mono
    residues %= n
    face = np.bincount(residues[:4].ravel(), minlength=n)
    # advanced in place, pass by pass; n < 470 under the budget, so the
    # residues and the steps, below n^2, fit int32
    interior, step = residues[4:].astype(np.int32)
    inner = np.bincount(interior[: math.comb(n - 2, 2)], minlength=n)
    for c in range(2, n - 2):
        k = math.comb(n - 1 - c, 2)
        x, dx = interior[:k], step[:k]
        x += dx
        x %= n
        inner += np.bincount(x, minlength=n)
        dx += 2 * g22 % n
    halves = face.tolist(), inner.tolist()
    # exact integers over a power-of-two denominator; int / int rounds once
    face_re, inner_re, face_im, inner_im = [
        sum(map(operator.mul, half, nums)) / den for nums, den in phases for half in halves
    ]
    return complex(0.5 * face_re + inner_re, 0.5 * face_im + inner_im)


def tetra_gauss_sum_formula(points: Sequence, n: int) -> GaussSumReport:
    """G_T(n) for a minimal lattice tetrahedron, assembled from boundary
    structure alone:

        G_T(n) = -1 + sum_{i<j} w_ij G(n_ij, n) + kappa(n)

    with w_ij the dihedral angles, n_ij the squared edge lengths, and G the
    quadratic Gauss sum in closed form."""
    check_positive_int(n, "dilation factor")
    n = operator.index(n)  # a built-in int, so the report serialises
    pts = _minimal_tetrahedron(points)
    ta = tetrahedron_angles(pts)
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
