"""The weighted exponential sum G_P(n) over the n-th dilate of a lattice
polytope, by three independent routes.

Direct: enumerate the lattice points of nP, weight each by the solid angle
of nP there, and attach the phase e(|x|^2 / n).

Folded: enumerate representatives z/n in the wedge 0 <= x_1 <= ... <= x_d
<= 1/2 (one per orbit of the signed-permutation-plus-translation group),
unfold each orbit into the dilate's bounding box, and sum the solid-angle
weights of the distinct orbit points; phases depend only on the
representative because the group preserves |x|^2 mod 1 after scaling.

Tetrahedron formula: for minimal (volume 1/6) lattice tetrahedra the whole
sum collapses to dihedral angles times quadratic Gauss sums plus a small
correction kappa(n) supported on face-interior and interior points.

All phases are computed from exact integer residues mod n before any
trigonometry, and every route reduces through fixed-order compensated
summation over the n residue classes, so results are deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .angles import face_angle, tetrahedron_angles
from .errors import DegenerateTetrahedron, MalformedInput, VolumeNotMinimal
from .gauss import gauss_sum_closed, phase_table, quad_gauss_closed
from .geometry import (
    Polytope,
    RationalVector,
    det3,
    dilate,
    integer_points,
    scan_lattice,
    volume,
)
from .weyl import weyl_elements

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

    @property
    def re(self) -> float:
        return self.value.real

    @property
    def im(self) -> float:
        return self.value.imag

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


def _residues_to_value(acc: Sequence[float], n: int) -> complex:
    table = phase_table(n)
    re = math.fsum(acc[k] * table[k].real for k in range(n))
    im = math.fsum(acc[k] * table[k].imag for k in range(n))
    return complex(re, im)


def _face_weights(Q: Polytope) -> np.ndarray:
    hit = Q._scan_cache.get("face_weights")
    if hit is not None:
        return hit
    w = np.array([face_angle(Q, fid) for fid in range(len(Q.faces))])
    Q._scan_cache["face_weights"] = w
    return w


def closed_form_value(P: Polytope, n: int) -> complex:
    """vol(P) G(n)^d, the value the sum takes on multi-tiling polytopes."""
    return float(volume(P)) * gauss_sum_closed(n) ** P.dim


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
    integer_points(P.vertices, _NOT_LATTICE)
    if n < 1:
        raise MalformedInput(f"dilation factor must be >= 1, got {n}")
    Q = dilate(P, n)
    pts, fids = scan_lattice(Q)
    weights = _face_weights(Q)[fids]
    if len(pts):
        residues = ((pts * pts).sum(axis=1) % n).astype(np.int64)
        acc = np.bincount(residues, weights=weights, minlength=n)
    else:
        acc = np.zeros(n)
    value = _residues_to_value(acc.tolist(), n)
    return _report(P, n, value, ROUTE_DIRECT, len(pts))


def _fold_offsets(lo: np.ndarray, hi: np.ndarray, n: int, d: int) -> np.ndarray:
    """All translation vectors n*lam whose translate of some wedge image can
    meet the box [lo, hi]; padded by the wedge coordinate bound n/2."""
    zmax = n // 2
    axes = []
    for i in range(d):
        lam_lo = -((zmax - int(lo[i])) // n)  # ceil((lo - zmax)/n)
        lam_hi = (int(hi[i]) + zmax) // n
        axes.append(np.arange(lam_lo, lam_hi + 1, dtype=np.int64) * n)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return grid


def polyhedral_gauss_sum_folded(P: Polytope, n: int) -> GaussSumReport:
    """G_P(n) by summing over one representative per symmetry orbit.

    Representatives are the points z/n with integer z in the sorted wedge
    0 <= z_1 <= ... <= z_d <= n/2 (each orbit of the signed-permutation and
    integer-translation group meets the closed wedge exactly once, via
    folding mod 1 and sorting).  Each representative's orbit is unfolded
    into the bounding box of nP, deduplicated exactly, and its solid-angle
    weights summed; the phase is e(|z|^2 mod n / n), well defined on the
    orbit because the group preserves norms mod the lattice.
    """
    integer_points(P.vertices, _NOT_LATTICE)
    if n < 1:
        raise MalformedInput(f"dilation factor must be >= 1, got {n}")
    d = P.dim
    Q = dilate(P, n)
    pts, fids = scan_lattice(Q)
    weights = _face_weights(Q)[fids]
    lo_f, hi_f = Q.bbox()
    lo = np.array([math.ceil(c) for c in lo_f], dtype=np.int64)
    hi = np.array([math.floor(c) for c in hi_f], dtype=np.int64)
    if np.any(hi < lo):
        return _report(P, n, 0j, ROUTE_FOLDED, 0)
    dims = tuple(int(x) for x in (hi - lo + 1))
    enc_pts = np.ravel_multi_index((pts - lo).T, dims)  # ascending: scan is lex

    wmats = np.stack([w.matrix() for w in weyl_elements(d)])  # (|W|, d, d)
    offsets = _fold_offsets(lo, hi, n, d)  # (L, d)

    acc = [0.0] * n
    reps = 0
    for z in itertools.combinations_with_replacement(range(n // 2 + 1), d):
        reps += 1
        zv = np.array(z, dtype=np.int64)
        images = np.unique(wmats @ zv, axis=0)  # (m, d)
        cand = (images[:, None, :] + offsets[None, :, :]).reshape(-1, d)
        keep = ((cand >= lo) & (cand <= hi)).all(axis=1)
        cand = cand[keep]
        if not len(cand):
            continue
        enc = np.unique(np.ravel_multi_index((cand - lo).T, dims))
        idx = np.searchsorted(enc_pts, enc)
        idx_valid = idx < len(enc_pts)
        hit = np.zeros(len(enc), dtype=bool)
        hit[idx_valid] = enc_pts[idx[idx_valid]] == enc[idx_valid]
        g = float(weights[idx[hit]].sum())
        if g:
            r = sum(c * c for c in z) % n
            acc[r] += g
    value = _residues_to_value(acc, n)
    return _report(P, n, value, ROUTE_FOLDED, reps)


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


def kappa(points: Sequence, n: int) -> complex:
    """The correction term of the tetrahedron formula: phase sums over the
    face-interior and interior lattice points of the dilate, expressed by
    positive integer barycentric weights,

        kappa(n) = 1/2 sum_{faces ijk} sum_{a+b+c=n, >0} e(|a v_i + b v_j + c v_k|^2 / n)
                 + sum_{a+b+c+d=n, >0} e(|a v_0 + b v_1 + c v_2 + d v_3|^2 / n).

    That these terms exhaust the non-edge points of nT is exactly the
    minimal-volume property, so volume 1/6 is enforced."""
    if n < 1:
        raise MalformedInput(f"modulus must be >= 1, got {n}")
    pts = _minimal_tetrahedron(points)
    table = phase_table(n)

    def norm_sq(vec: tuple[int, int, int]) -> int:
        return vec[0] * vec[0] + vec[1] * vec[1] + vec[2] * vec[2]

    face_terms: list[complex] = []
    for i, j, k in itertools.combinations(range(4), 3):
        vi, vj, vk = pts[i], pts[j], pts[k]
        for a in range(1, n - 1):
            for b in range(1, n - a):
                c = n - a - b
                if c < 1:
                    continue
                v = tuple(a * vi[t] + b * vj[t] + c * vk[t] for t in range(3))
                face_terms.append(table[norm_sq(v) % n])
    interior_terms: list[complex] = []
    for a in range(1, n - 2):
        for b in range(1, n - a - 1):
            for c in range(1, n - a - b):
                e = n - a - b - c
                if e < 1:
                    continue
                v = tuple(
                    a * pts[0][t] + b * pts[1][t] + c * pts[2][t] + e * pts[3][t]
                    for t in range(3)
                )
                interior_terms.append(table[norm_sq(v) % n])
    re = 0.5 * math.fsum(t.real for t in face_terms) + math.fsum(
        t.real for t in interior_terms
    )
    im = 0.5 * math.fsum(t.imag for t in face_terms) + math.fsum(
        t.imag for t in interior_terms
    )
    return complex(re, im)


def tetra_gauss_sum_formula(points: Sequence, n: int) -> GaussSumReport:
    """G_T(n) for a minimal lattice tetrahedron, assembled from boundary
    structure alone:

        G_T(n) = -1 + sum_{i<j} w_ij G(n_ij, n) + kappa(n)

    with w_ij the dihedral angles, n_ij the squared edge lengths, and G the
    quadratic Gauss sum in closed form."""
    if n < 1:
        raise MalformedInput(f"dilation factor must be >= 1, got {n}")
    pts = _minimal_tetrahedron(points)
    ta = tetrahedron_angles([RationalVector(p) for p in pts])
    value = complex(-1.0, 0.0)
    for (i, j), w in sorted(ta.dihedral.items()):
        value += w * quad_gauss_closed(int(ta.sq_lengths[(i, j)]), n)
    value += kappa(points, n)
    count = math.comb(n + 3, 3)
    residual = value - gauss_sum_closed(n) ** 3 / 6
    return GaussSumReport(
        n=n,
        value=value,
        route=ROUTE_TETRA,
        point_count=count,
        residual=residual,
    )


def closed_form_residual(P: Polytope, n: int) -> complex:
    """Difference between the direct-route sum and vol(P) G(n)^d."""
    return polyhedral_gauss_sum_direct(P, n).residual
