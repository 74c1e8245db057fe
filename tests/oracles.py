"""Literal reference implementations of the vectorised layers.

Each is the straightforward (and slow) form of a library function: the
bounding-box lattice scan, the triple-loop kappa, the folded route that
unfolds every orbit representative into the bounding box, the G-orbit
count that walks every translation box point by point, the search's
candidates from every index triple, and the tetrahedron angles computed on
RationalVector arithmetic.  Tests compare the library against the first
three and the last two for exact equality, so every float they produce is
computed in the same order as the library's; the orbit count's angle sum is
summed in loop order and compared to within rounding.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from polygauss.angles import TWO_PI, TetrahedronAngles, face_angle
from polygauss.errors import (
    DegenerateCone,
    DegenerateTetrahedron,
    UnsupportedDimension,
)
from polygauss.gauss import phase_table
from polygauss.geometry import (
    Polytope,
    RationalVector,
    det3,
    dilate,
    integer_facet_system,
)
from polygauss.polysum import _residues_to_value
from polygauss.weyl import weyl_elements


def face_of_tight_facets(P, tight):
    """Id of the face on the common vertices of the facets in `tight`, found
    by intersecting their vertex sets; the full face when `tight` is empty."""
    if not tight:
        return next(i for i, f in enumerate(P.faces) if f.dim == P.dim)
    common = frozenset.intersection(*(P.facet_vertex_ids[k] for k in tight))
    return next(i for i, f in enumerate(P.faces) if set(f.vertex_ids) == common)


def grid_scan_lattice(P):
    """scan_lattice by testing every point of the bounding box against the
    whole facet system."""
    lo = [math.ceil(c) for c in P.bbox()[0]]
    hi = [math.floor(c) for c in P.bbox()[1]]
    if any(h < l for l, h in zip(lo, hi)):
        return np.zeros((0, P.dim), np.int64), np.zeros(0, np.int64)
    axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, P.dim)
    A, c = integer_facet_system(P)
    slack = c[None, :] - grid @ A.T
    inside = (slack >= 0).all(axis=1)
    tight = slack[inside] == 0
    face_ids = [face_of_tight_facets(P, np.flatnonzero(row).tolist()) for row in tight]
    return grid[inside], np.array(face_ids, dtype=np.int64)


def loop_kappa(pts, n):
    """kappa(n) term by term over the compositions of n into 3 and 4 parts."""
    table = phase_table(n)

    def phase(weights, verts):
        v = [sum(w * p[t] for w, p in zip(weights, verts)) for t in range(3)]
        return table[sum(c * c for c in v) % n]

    face_terms = [
        phase((a, b, n - a - b), [pts[i], pts[j], pts[k]])
        for i, j, k in itertools.combinations(range(4), 3)
        for a in range(1, n - 1)
        for b in range(1, n - a)
    ]
    interior_terms = [
        phase((a, b, c, n - a - b - c), pts)
        for a in range(1, n - 2)
        for b in range(1, n - a - 1)
        for c in range(1, n - a - b)
    ]
    re = 0.5 * math.fsum(t.real for t in face_terms) + math.fsum(
        t.real for t in interior_terms
    )
    im = 0.5 * math.fsum(t.imag for t in face_terms) + math.fsum(
        t.imag for t in interior_terms
    )
    return complex(re, im)


def unfolded_sum(P, n):
    """The folded route's value by unfolding each wedge representative z
    into the bounding box of nP and summing the weights of its orbit points
    in scan order."""
    d = P.dim
    Q = dilate(P, n)
    pts, fids = grid_scan_lattice(Q)
    weights = np.array([face_angle(Q, f) for f in range(len(Q.faces))])[fids]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    dims = tuple((hi - lo + 1).tolist())
    enc_pts = np.ravel_multi_index((pts - lo).T, dims)
    half = n // 2
    shifts = [
        np.arange(-((half - lo[i]) // n), (hi[i] + half) // n + 1, dtype=np.int64) * n
        for i in range(d)
    ]
    offsets = np.stack(np.meshgrid(*shifts, indexing="ij"), axis=-1).reshape(-1, d)
    wmats = weyl_elements(d)
    acc = [0.0] * n
    for z in itertools.combinations_with_replacement(range(half + 1), d):
        images = np.unique(wmats @ np.array(z, dtype=np.int64), axis=0)
        cand = (images[:, None, :] + offsets[None, :, :]).reshape(-1, d)
        cand = cand[((cand >= lo) & (cand <= hi)).all(axis=1)]
        enc = np.unique(np.ravel_multi_index((cand - lo).T, dims))
        g = float(weights[np.isin(enc_pts, enc)].sum())
        if g:
            acc[sum(c * c for c in z) % n] += g
    return _residues_to_value(acc, n)


def _common_denominator(x: RationalVector) -> tuple[tuple[int, ...], int]:
    q = 1
    for c in x.coords:
        q = q * c.denominator // math.gcd(q, c.denominator)
    return tuple(int(c * q) for c in x.coords), q


def loop_orbit_weight_sum(
    P: Polytope, x: RationalVector, indicator: bool
) -> tuple[float, int, bool]:
    """Sum of weights of P over the G-orbit of x, where G is the signed
    permutations extended by integer translations.

    With indicator=False the weight is the solid angle (so the result is the
    orbit sum of angle weights); with indicator=True every point inside
    closed P counts 1.  Returns (sum, integer hit count, boundary_hit): the
    latter flags any orbit point landing exactly on the boundary of P, where
    an indicator is ambiguous.

    Arithmetic is pure-integer: x = a/q, and membership of (w a + q lam)/q
    is tested as A (w a + q lam) <= q b for the cleared facet system A, b.
    """
    a, q = _common_denominator(x)
    A, b = integer_facet_system(P)
    A_rows = A.tolist()
    qb = [q * int(bi) for bi in b.tolist()]
    lo_f, hi_f = P.bbox()
    d = P.dim
    total = 0.0
    hits = 0
    boundary = False
    seen: set[tuple[int, ...]] = set()
    for u in (weyl_elements(d) @ np.array(a, dtype=object)).tolist():
        ranges = []
        for i in range(d):
            lo_i = math.ceil(lo_f[i] - Fraction(u[i], q))
            hi_i = math.floor(hi_f[i] - Fraction(u[i], q))
            ranges.append(range(lo_i, hi_i + 1))
        for lam in itertools.product(*ranges):
            z = tuple(u[i] + q * lam[i] for i in range(d))
            if z in seen:
                continue
            tight = []
            ok = True
            for row, bound in zip(A_rows, qb):
                s = bound - sum(r * zi for r, zi in zip(row, z))
                if s < 0:
                    ok = False
                    break
                if s == 0:
                    tight.append(True)
            if not ok:
                continue
            seen.add(z)
            hits += 1
            if tight:
                boundary = True
                if not indicator:
                    # exact face lookup for the angle weight
                    tight_ids = [
                        i
                        for i, (row, bound) in enumerate(zip(A_rows, qb))
                        if bound == sum(r * zi for r, zi in zip(row, z))
                    ]
                    fid = face_of_tight_facets(P, tight_ids)
                    total += face_angle(P, fid)
                else:
                    total += 1.0
            else:
                total += 1.0
    return total, hits, boundary


def index_triple_candidates(B: int) -> np.ndarray:
    """The search's candidates from every index triple of nonzero vectors in
    [-B, B]^3, kept where the determinant is +-1, in index-triple order."""
    rng = np.arange(-B, B + 1, dtype=np.int64)
    vecs = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    vecs = vecs[np.any(vecs != 0, axis=1)]
    flat = itertools.chain.from_iterable(itertools.combinations(range(len(vecs)), 3))
    edges = vecs[np.fromiter(flat, dtype=np.int64).reshape(-1, 3)]  # (M, 3, 3)
    edges = edges[np.abs(det3(edges[:, 0].T, edges[:, 1].T, edges[:, 2].T)) == 1]
    pts = np.zeros((len(edges), 4, 3), dtype=np.int64)
    pts[:, 1:] = edges
    return pts


def vector_cone_angle(a: RationalVector, b: RationalVector, c: RationalVector) -> float:
    """Solid angle of the cone on three RationalVector generators."""
    det = det3(a, b, c)
    if det == 0:
        raise DegenerateCone("cone generators are linearly dependent")
    la = math.sqrt(a.norm_sq())
    lb = math.sqrt(b.norm_sq())
    lc = math.sqrt(c.norm_sq())
    denom = (
        la * lb * lc
        + float(b.dot(c)) * la
        + float(c.dot(a)) * lb
        + float(a.dot(b)) * lc
    )
    return math.atan2(abs(float(det)), denom) / TWO_PI


def vector_tetrahedron_angles(points) -> TetrahedronAngles:
    """tetrahedron_angles with a new RationalVector for every subtraction,
    negation and cross product."""
    if len(points) != 4:
        raise DegenerateTetrahedron(f"need 4 points, got {len(points)}")
    pts = [p if isinstance(p, RationalVector) else RationalVector(p) for p in points]
    if any(p.dim != 3 for p in pts):
        raise UnsupportedDimension("tetrahedron vertices must be 3-dimensional")
    det = det3(pts[1] - pts[0], pts[2] - pts[0], pts[3] - pts[0])
    if det == 0:
        raise DegenerateTetrahedron("zero signed volume")

    solid = []
    external = {}
    for i in range(4):
        others = [j for j in range(4) if j != i]
        gens = [pts[j] - pts[i] for j in others]
        solid.append(vector_cone_angle(*gens))
        for n, j in enumerate(others):
            b, c = gens[:n] + gens[n + 1 :]
            external[(i, j)] = vector_cone_angle(-gens[n], b, c)

    dihedral = {}
    sq_lengths = {}
    for i in range(4):
        for j in range(i + 1, 4):
            k, l = (m for m in range(4) if m not in (i, j))
            u = pts[j] - pts[i]
            m1 = u.cross(pts[k] - pts[i])
            m2 = u.cross(pts[l] - pts[i])
            dihedral[(i, j)] = (
                math.atan2(
                    abs(float(det)) * math.sqrt(u.norm_sq()), float(m1.dot(m2))
                )
                / TWO_PI
            )
            nsq = u.norm_sq()
            sq_lengths[(i, j)] = int(nsq) if nsq.denominator == 1 else nsq

    return TetrahedronAngles(
        vertices=tuple(pts),
        solid=tuple(solid),
        dihedral=dihedral,
        external=external,
        sq_lengths=sq_lengths,
        volume=Fraction(abs(det), 6),
    )
