"""Literal reference implementations of the vectorised layers.

Each is the straightforward (and slow) form of a library function: the
face lattice from the common vertices of every d or fewer facets, the
bounding-box lattice scan, the direct route's G_P(n) summed point by
point, the triple-loop kappa, the direct route's (face, residue) counts
from unfolding every orbit representative into the bounding box, the G-orbit count that walks every translation box point by
point, the multi-tiling check with one orbit query per sample, the
search's candidates from every index triple, its orbits from keying every
candidate rather than one per W-class, its canonical keys
from all four vertex codes, and the tetrahedron angles computed with a new
vector for every difference and cross product.  Tests compare the library
against every one but the point-by-point G_P(n), the G-orbit count and
the four-code keys for exact equality: scans, counts and reports hold
integers and strings, and every float the others produce is computed in
the same order as the library's; the point-by-point G_P(n) and the orbit
count's angle sum are summed in their own order and compared to within
rounding, and the four-code keys, which differ from the library's
in value, are compared by the order they put the candidates in.
"""

import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from polygauss.angles import TWO_PI, TetrahedronAngles, face_angle
from polygauss.classify import _canonical_keys
from polygauss.errors import (
    DegenerateCone,
    DegenerateTetrahedron,
    UnsupportedDimension,
)
from polygauss.gauss import phase_table
from polygauss.geometry import (
    Face,
    Polytope,
    RationalVector,
    dilate,
    integer_facet_system,
    volume,
)
from polygauss import weyl
from polygauss.weyl import MultiTilingReport, weyl_elements


def facet_vertices(P):
    """The vertex ids on each facet of P, facet k read off the face whose
    mask is 1 << k."""
    on = {f.mask: frozenset(f.vertex_ids) for f in P.faces}
    return [on[1 << k] for k in range(P.n_facets)]


def face_of_tight_facets(P, tight):
    """Id of the face on the common vertices of the facets in `tight`, found
    by intersecting their vertex sets; the full face when `tight` is empty."""
    if not tight:
        return next(i for i, f in enumerate(P.faces) if f.dim == P.dim)
    on = facet_vertices(P)
    common = frozenset.intersection(*(on[k] for k in tight))
    return next(i for i, f in enumerate(P.faces) if set(f.vertex_ids) == common)


def _rank(rows):
    """Rank of a list of rational rows, by exact elimination: each nonzero
    row taken clears its first nonzero column from the rows left."""
    rank, rows = 0, [[Fraction(x) for x in r] for r in rows]
    while rows:
        pivot = rows.pop()
        c = next((c for c, x in enumerate(pivot) if x), None)
        if c is not None:
            rank += 1
            rows = [[x - r[c] / pivot[c] * y for x, y in zip(r, pivot)] for r in rows]
    return rank


def brute_force_face_lattice(P):
    """P.faces and P.mask_table from P's vertices and facet equations
    alone.  Every face is the set of vertices lying on all the facets of a
    subset of at most d of them: a k-face lies on d - k facets with
    independent normals, which cut out its affine hull.  So each such
    subset with a common vertex gives a face, its mask is the facets
    holding all its vertices and its dimension their affine rank.  Faces
    are ordered by dimension, then vertex ids; the table's rows are the
    masks in increasing order and the ids of their faces."""
    V = P.numerators
    on = [
        frozenset(i for i, v in enumerate(V) if sum(a * c for a, c in zip(N, v)) == b)
        for N, b in zip(P.facet_normals, P.facet_bounds)
    ]
    sets = {
        frozenset(range(len(V))).intersection(*(on[k] for k in subset))
        for r in range(P.dim + 1)
        for subset in itertools.combinations(range(P.n_facets), r)
    }
    faces = sorted(
        (
            Face(
                _rank([[a - b for a, b in zip(V[i], V[min(vs)])] for i in vs]),
                tuple(sorted(vs)),
                sum(1 << k for k, f in enumerate(on) if vs <= f),
            )
            for vs in sets
            if vs
        ),
        key=lambda f: (f.dim, f.vertex_ids),
    )
    order = sorted(range(len(faces)), key=lambda i: faces[i].mask)
    return tuple(faces), [[faces[i].mask for i in order], order]


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
    kinds, which = np.unique(tight, axis=0, return_inverse=True)  # one lookup per tight set
    face_ids = [face_of_tight_facets(P, np.flatnonzero(row).tolist()) for row in kinds]
    return grid[inside], np.array(face_ids, dtype=np.int64)[which.reshape(-1)]


def loop_gauss_sum(P, n):
    """G_P(n) point by point: each lattice point x of nP from the grid
    scan, weighted by the solid angle of nP at its face, times
    e(|x|^2 / n), with the terms summed by math.fsum."""
    Q = dilate(P, n)
    pts, fids = grid_scan_lattice(Q)
    weights = [face_angle(Q, f) for f in range(len(Q.faces))]
    terms = [
        weights[f] * cmath.exp(2j * math.pi * (sum(c * c for c in x) % n) / n)
        for x, f in zip(pts.tolist(), fids.tolist())
    ]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def compositions(n, parts):
    """The compositions of n into `parts` positive parts, one per row of an
    int64 array, in lexicographic order."""
    rows = [c for c in itertools.product(range(1, n + 1), repeat=parts) if sum(c) == n]
    return np.array(rows, dtype=np.int64).reshape(len(rows), parts)


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


def unfolded_counts(P, n):
    """The direct route's (face, residue) counts C[f, r] by unfolding each
    wedge representative z, 0 <= z_1 <= ... <= z_d <= n/2, into the
    bounding box of nP: every point x of its orbit under signed
    permutations and translations by n, located by the grid scan, counts on
    its face at r = |z|^2 mod n, since the group preserves |x|^2 mod n."""
    d = P.dim
    Q = dilate(P, n)
    pts, fids = grid_scan_lattice(Q)
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
    counts = np.zeros((len(Q.faces), n), dtype=np.int64)
    for z in itertools.combinations_with_replacement(range(half + 1), d):
        images = np.unique(wmats @ np.array(z, dtype=np.int64), axis=0)
        cand = (images[:, None, :] + offsets[None, :, :]).reshape(-1, d)
        cand = cand[((cand >= lo) & (cand <= hi)).all(axis=1)]
        enc = np.unique(np.ravel_multi_index((cand - lo).T, dims))
        hit = np.isin(enc_pts, enc)
        counts[:, sum(c * c for c in z) % n] += np.bincount(fids[hit], minlength=len(Q.faces))
    return counts


def _common_denominator(x: RationalVector) -> tuple[tuple[int, ...], int]:
    q = 1
    for c in x.coords:
        q = q * c.denominator // math.gcd(q, c.denominator)
    return tuple(int(c * q) for c in x.coords), q


def loop_orbit_faces(P: Polytope, x: RationalVector) -> list[int]:
    """The face id of every distinct point of the G-orbit of x in closed
    P, where G is the signed permutations extended by integer
    translations, in loop order: w over weyl_elements, then each
    translation lam of the bounding box.

    Arithmetic is pure-integer: x = a/q, and membership of (w a + q lam)/q
    is tested as A (w a + q lam) <= q b for the cleared facet system A, b;
    a point's face is the one on the facets where that is an equality.
    """
    a, q = _common_denominator(x)
    A, b = integer_facet_system(P)
    A_rows = A.tolist()
    qb = [q * int(bi) for bi in b.tolist()]
    lo_f, hi_f = P.bbox()
    d = P.dim
    faces = []
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
            slacks = [bound - sum(r * zi for r, zi in zip(row, z)) for row, bound in zip(A_rows, qb)]
            if min(slacks) < 0:
                continue
            seen.add(z)
            faces.append(face_of_tight_facets(P, [k for k, s in enumerate(slacks) if s == 0]))
    return faces


def loop_orbit_weight_sum(
    P: Polytope, x: RationalVector, indicator: bool
) -> tuple[float, int, bool]:
    """Sum of weights of P over the G-orbit of x (loop_orbit_faces),
    summed in loop order.

    With indicator=False the weight is the solid angle (so the result is the
    orbit sum of angle weights); with indicator=True every point inside
    closed P counts 1.  Returns (sum, integer hit count, boundary_hit): the
    latter flags any orbit point landing exactly on the boundary of P, where
    an indicator is ambiguous.
    """
    full = face_of_tight_facets(P, [])
    faces = loop_orbit_faces(P, x)
    total = 0.0
    for f in faces:
        total += 1.0 if indicator or f == full else face_angle(P, f)
    return total, len(faces), any(f != full for f in faces)


def loop_multitiling_check(
    P: Polytope, sample_count: int = 200, seed: int = 0
) -> MultiTilingReport:
    """weyl.multitiling_check with one orbit query per sample: each sample
    is drawn, counted by a one-row weyl._orbit_face_ids call and judged
    before the next is drawn."""
    d = P.dim
    frame = weyl._orbit_frame(P)
    expected_frac = len(weyl_elements(d)) * volume(P)
    expected = int(expected_frac) if expected_frac.denominator == 1 else None
    rng = random.Random(seed)
    q = weyl.SAMPLE_DENOMINATOR
    witnesses = []
    checked = 0
    redraws = 0
    while checked < sample_count:
        a = weyl._sample_fundamental_point(rng, d, q)
        _, ids = weyl._orbit_face_ids(P, frame, [a], q)
        hits = len(ids)
        point = tuple(f"{v}/{q}" for v in a)
        if (ids != P.full_face_id).any():
            redraws += 1
            if redraws > 50:
                witnesses.append((point, hits))
                break
            continue
        checked += 1
        if expected is None or hits != expected:
            witnesses.append((point, hits))
            if len(witnesses) >= 5:
                break
    ok = not witnesses and expected is not None
    return MultiTilingReport(
        is_multitiling=ok,
        multiplicity=expected if ok else None,
        samples_checked=checked,
        witnesses=tuple(witnesses),
        expected=expected,
    )


def index_triple_candidates(B: int) -> tuple[np.ndarray, np.ndarray]:
    """The search's candidates from every index triple of nonzero vectors in
    [-B, B]^3, kept where the determinant is +-1, in index-triple order:
    (vecs, triples), the vectors in scan order and the kept triples.  Per
    first vector v_i, every determinant det(v_i, v_j, v_k) = (v_i x v_j) . v_k
    of later vectors is one matrix product."""
    rng = np.arange(-B, B + 1, dtype=np.int64)
    vecs = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    vecs = vecs[np.any(vecs != 0, axis=1)]
    found = [np.zeros((0, 3), dtype=np.int64)]
    for i in range(len(vecs)):
        later = vecs[i + 1 :]
        det = np.cross(vecs[i], later) @ later.T  # [j, k] for i < j and i < k
        j, k = np.nonzero(np.triu(np.abs(det) == 1, 1))
        found.append(np.stack([np.full(len(j), i), j + i + 1, k + i + 1], axis=1))
    return vecs, np.concatenate(found)


def all_candidate_orbits(B: int) -> tuple[int, list]:
    """The search's orbits from every candidate, as classify._enumerate
    returns them: (candidate count, [(packed canonical key, first-seen
    representative)] sorted by key), every candidate keyed and np.unique
    keeping the first candidate of each key in index-triple order."""
    vecs, triples = index_triple_candidates(B)
    uniq, first = np.unique(_canonical_keys(vecs, triples, B), return_index=True)
    reps = vecs[triples[first]].tolist()
    orbits = [(key, ((0, 0, 0), *map(tuple, rep))) for key, rep in zip(uniq.tolist(), reps)]
    return len(triples), orbits


def four_code_canonical_keys(pts: np.ndarray, B: int) -> np.ndarray:
    """Packed canonical key per tetrahedron from all four vertex codes:
    minimum over the 4 origin choices and the signed permutations of the
    sorted tuple of the four translated vertices, each packed in base 4B+1
    and the four in base (4B+1)^3 into one int64 (so B <= 9).

    pts: (m, 4, 3) integer vertices with coordinates in [-B, B].
    """
    base = 4 * B + 1
    shift = 2 * B

    def codes(v):
        return ((v[..., 0] + shift) * base + v[..., 1] + shift) * base + v[..., 2] + shift

    vert_cap = base**3
    rng = np.arange(-2 * B, 2 * B + 1, dtype=np.int64)
    box = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    table = codes(np.einsum("wij,vj->vwi", weyl_elements(3), box)).astype(np.int32)  # [v, w]
    pts = np.asarray(pts, dtype=np.int64)
    best = None
    for k in range(4):
        # [m, w, j]: image of vertex j translated so that vertex k is the origin
        images = np.sort(table[codes(pts - pts[:, k : k + 1])].transpose(0, 2, 1), axis=2)
        key = images[..., 0].astype(np.int64)
        for j in range(1, 4):
            key = key * vert_cap + images[..., j]
        key = key.min(axis=1)
        best = key if best is None else np.minimum(best, key)
    return best


def vsub(a, b):
    """The difference a - b of two exact points, as a tuple."""
    return tuple(x - y for x, y in zip(a, b))


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def det3(a, b, c):
    """The 3 x 3 determinant with rows a, b, c, written out term by term."""
    return (
        a[0] * b[1] * c[2] + a[1] * b[2] * c[0] + a[2] * b[0] * c[1]
        - a[2] * b[1] * c[0] - a[0] * b[2] * c[1] - a[1] * b[0] * c[2]
    )


def vector_cone_angle(a, b, c) -> float:
    """Solid angle of the cone on three exact generators."""
    det = det3(a, b, c)
    if det == 0:
        raise DegenerateCone("cone generators are linearly dependent")
    la = math.sqrt(dot(a, a))
    lb = math.sqrt(dot(b, b))
    lc = math.sqrt(dot(c, c))
    denom = (
        la * lb * lc
        + float(dot(b, c)) * la
        + float(dot(c, a)) * lb
        + float(dot(a, b)) * lc
    )
    return math.atan2(abs(float(det)), denom) / TWO_PI


def vector_tetrahedron_angles(points) -> TetrahedronAngles:
    """tetrahedron_angles with a new vector for every difference and cross
    product."""
    if len(points) != 4:
        raise DegenerateTetrahedron(f"need 4 points, got {len(points)}")
    pts = [p if isinstance(p, RationalVector) else RationalVector(p) for p in points]
    if any(p.dim != 3 for p in pts):
        raise UnsupportedDimension("tetrahedron vertices must be 3-dimensional")
    det = det3(vsub(pts[1], pts[0]), vsub(pts[2], pts[0]), vsub(pts[3], pts[0]))
    if det == 0:
        raise DegenerateTetrahedron("zero signed volume")

    solid = []
    external = {}
    for i in range(4):
        others = [j for j in range(4) if j != i]
        gens = [vsub(pts[j], pts[i]) for j in others]
        solid.append(vector_cone_angle(*gens))
        for n, j in enumerate(others):
            b, c = gens[:n] + gens[n + 1 :]
            external[(i, j)] = vector_cone_angle(vsub(pts[i], pts[j]), b, c)

    dihedral = {}
    sq_lengths = {}
    for i in range(4):
        for j in range(i + 1, 4):
            k, l = (m for m in range(4) if m not in (i, j))
            u = vsub(pts[j], pts[i])
            m1 = cross(u, vsub(pts[k], pts[i]))
            m2 = cross(u, vsub(pts[l], pts[i]))
            dihedral[(i, j)] = (
                math.atan2(
                    abs(float(det)) * math.sqrt(dot(u, u)), float(dot(m1, m2))
                )
                / TWO_PI
            )
            nsq = dot(u, u)
            sq_lengths[(i, j)] = int(nsq) if nsq.denominator == 1 else nsq

    return TetrahedronAngles(
        vertices=tuple(pts),
        solid=tuple(solid),
        dihedral=dihedral,
        external=external,
        sq_lengths=sq_lengths,
        volume=Fraction(abs(det), 6),
    )
