"""The weighted exponential sum G_P(n) over the n-th dilate of a lattice
polytope, by three independent routes.

Direct: enumerate the lattice points of nP, weight each by the solid angle
of nP there, and attach the phase e(|x|^2 / n).

Folded: fold every lattice point of nP to its representative z/n in the
wedge 0 <= x_1 <= ... <= x_d <= 1/2 (one per orbit of the
signed-permutation-plus-translation group), sum the solid-angle weights per
representative, and attach one phase per representative; phases depend
only on the representative because the group preserves |x|^2 mod 1 after
scaling.

Tetrahedron formula: for minimal (volume 1/6) lattice tetrahedra the whole
sum collapses to dihedral angles times quadratic Gauss sums plus a small
correction kappa(n) supported on face-interior and interior points.

All phases are computed from exact integer residues mod n before any
trigonometry, and every sum is taken in a fixed order, so results are
deterministic: the direct and folded routes combine the n residue classes
under compensated summation (math.fsum), the tetra route sums kappa's
terms with math.fsum and adds the six dihedral terms in a plain loop.
"""

from __future__ import annotations

import math
import numbers
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


def _residues_to_value(acc: Sequence[float], n: int) -> complex:
    table = phase_table(n)
    re = math.fsum(acc[k] * table[k].real for k in range(n))
    im = math.fsum(acc[k] * table[k].imag for k in range(n))
    return complex(re, im)


def _weighted_scan(P: Polytope, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The lattice points of nP for a lattice polytope P, in scan order, and
    the solid angle of nP at each."""
    integer_points(P.vertices, _NOT_LATTICE)
    _check_n(n, "dilation factor")
    Q = dilate(P, n)
    pts, fids = scan_lattice(Q)
    weights = np.array([face_angle(Q, fid) for fid in range(len(Q.faces))])
    return pts, weights[fids]


def closed_form_value(P: Polytope, n: int) -> complex:
    """vol(P) G(n)^d, the value the sum takes on multi-tiling polytopes."""
    return float(volume(P)) * quad_gauss_closed(1, n) ** P.dim


def _report(P: Polytope, n: int, value: complex, route: str, count: int) -> GaussSumReport:
    return GaussSumReport(
        n=n,
        value=value,
        route=route,
        point_count=count,
        residual=value - closed_form_value(P, n),
    )


def polyhedral_gauss_sum_direct(P: Polytope, n: int) -> GaussSumReport:
    """G_P(n) by enumerating the lattice points of the dilate nP.

    Points arrive in lexicographic order from the scan; their solid-angle
    weights are accumulated per residue class of |x|^2 mod n and the n
    residue phases are combined last under compensated summation.
    """
    pts, weights = _weighted_scan(P, n)
    lo, hi = P.bbox()
    if P.dim * (n * max(map(abs, lo + hi))) ** 2 >= 1 << 63:
        # |x|^2 mod n depends only on x mod n, and reduced coordinates are
        # below n, so their squared norms stay far inside int64
        pts = pts % n
    residues = np.einsum("ij,ij->i", pts, pts) % n
    acc = np.bincount(residues, weights=weights, minlength=n)
    value = _residues_to_value(acc.tolist(), n)
    return _report(P, n, value, ROUTE_DIRECT, len(pts))


def polyhedral_gauss_sum_folded(P: Polytope, n: int) -> GaussSumReport:
    """G_P(n) by summing over one representative per symmetry orbit.

    Representatives are the points z/n with integer z in the sorted wedge
    0 <= z_1 <= ... <= z_d <= n/2: each orbit of the signed-permutation and
    integer-translation group meets the closed wedge exactly once.  Every
    scanned point x of nP folds to its representative by z = x mod n,
    z = min(z, n - z) and sorting.  A stable sort groups the points by
    representative in scan order, each group's solid-angle weights are
    summed, and the group sum is attached to the phase e(|z|^2 mod n / n),
    well defined on the orbit because the group preserves norms mod the
    lattice.  The point count reported is the number of representatives.
    """
    d = P.dim
    pts, weights = _weighted_scan(P, n)
    z = pts % n
    np.minimum(z, n - z, out=z)
    z.sort(axis=1)
    key = z @ (n // 2 + 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)
    order = np.argsort(key, kind="stable")
    weights = weights[order]
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    ends = np.append(starts[1:], len(order))
    sums = [float(weights[s:e].sum()) for s, e in zip(starts.tolist(), ends.tolist())]
    reps = z[order[starts]]
    acc = np.bincount(np.einsum("ij,ij->i", reps, reps) % n, weights=sums, minlength=n)
    value = _residues_to_value(acc.tolist(), n)
    return _report(P, n, value, ROUTE_FOLDED, math.comb(n // 2 + d, d))


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


def compositions(n: int, parts: int) -> np.ndarray:
    """The compositions of n into `parts` positive parts, one per row of an
    int64 array, in lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.int64)
    for later in range(parts - 1, 0, -1):  # parts still to come after this one
        room = np.maximum(n - rows.sum(axis=1) - later, 0)
        rows = line_points(rows, np.ones(len(rows), dtype=np.int64), room)
    return np.column_stack([rows, n - rows.sum(axis=1)])


def _build_kappa_weights(n: int) -> tuple[np.ndarray, int]:
    """Barycentric weights over the four vertices of every term of kappa(n):
    the compositions of n into three parts on each face (zero on the vertex
    off the face), then those into four parts; and the number of face rows."""
    tri = compositions(n, 3)
    faces = [np.insert(tri, off, 0, axis=1) for off in (3, 2, 1, 0)]
    weights = np.concatenate(faces + [compositions(n, 4)])
    weights.setflags(write=False)  # cached tables are shared between calls
    return weights, 4 * len(tri)


# kappa is called once per (tetrahedron, n) and the search repeats n = 1..4
# for every orbit, so the tables for n <= 32 (at most 0.2 MB each) are kept.
_CACHED_KAPPA_N = 32
_cached_kappa_weights = lru_cache(maxsize=_CACHED_KAPPA_N)(_build_kappa_weights)


def kappa(points: Sequence, n: int) -> complex:
    """The correction term of the tetrahedron formula: phase sums over the
    face-interior and interior lattice points of the dilate, expressed by
    positive integer barycentric weights,

        kappa(n) = 1/2 sum_{faces ijk} sum_{a+b+c=n, >0} e(|a v_i + b v_j + c v_k|^2 / n)
                 + sum_{a+b+c+d=n, >0} e(|a v_0 + b v_1 + c v_2 + d v_3|^2 / n).

    That these terms exhaust the non-edge points of nT is exactly the
    minimal-volume property, so volume 1/6 is enforced.  Every term's
    residue comes from one integer matrix product over all compositions,
    and each of the four sums is one math.fsum over its terms."""
    _check_n(n, "modulus")
    pts = _minimal_tetrahedron(points)
    if n < 3:  # no composition of n into three positive parts
        return complex(0.0, 0.0)
    check_budget("kappa terms", 4 * math.comb(n - 1, 2) + math.comb(n - 1, 3))
    if n <= _CACHED_KAPPA_N:
        weights, face_rows = _cached_kappa_weights(n)
    else:
        weights, face_rows = _build_kappa_weights(n)
    # |x|^2 mod n depends only on x mod n, and reduced vertices keep every
    # product below 3 n^4, far inside int64 for any n under the budget.
    verts = np.array([c % n for p in pts for c in p], dtype=np.int64).reshape(4, 3)
    x = weights @ verts
    terms = np.array(phase_table(n))[(x * x).sum(axis=1) % n]
    face, inner = terms[:face_rows], terms[face_rows:]
    re = 0.5 * math.fsum(face.real.tolist()) + math.fsum(inner.real.tolist())
    im = 0.5 * math.fsum(face.imag.tolist()) + math.fsum(inner.imag.tolist())
    return complex(re, im)


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
