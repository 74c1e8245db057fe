"""Finite search over minimal lattice tetrahedra.

Enumerates every tetrahedron conv{0, v1, v2, v3} with vertex coordinates in
[-B, B] and |det(v1, v2, v3)| = 1 (volume 1/6), deduplicates them into
orbits of the signed-permutation-plus-translation group, tests each orbit
representative against the closed-form relation G_T(n) = G(n)^3 / 6 for
n in {1, 2, 3, 4}, and reports which orbits pass.  The converse guess is
that only the orbit of T = conv{(0,0,0), (1,0,0), (1,1,0), (1,1,1)} passes;
every search from B = 1 to 5 passes exactly two orbits, T and
T' = conv{(0,0,0), (1,0,0), (0,0,-1), (1,1,1)} (README "Findings").

The enumeration is vectorized one first vector at a time: the cross
products v_i x v_j with every later v_j, dotted with every later v_k, give
all determinants of triples starting at v_i, and the ones equal to +-1 are
kept in index-triple order.  Beyond the candidates themselves a step holds
O(N) normals and a fixed-size chunk of determinants for the N vectors of
the box, and the running candidate count is held to geometry.POINT_BUDGET,
so an oversized bound raises MalformedInput.

Canonicalization is by table lookup.  Each vertex translated to a chosen
origin packs into an integer code whose order is the lexicographic order of
vertices.  A signed permutation is linear, so it maps codes to codes, and
one precomputed int32 ((4B+1)^3, |W|) table holds every image.  Per origin
the four codes are gathered from the table, a cache-sized chunk of
tetrahedra at a time, sorted by a five-comparator min/max network and
packed into one int64 key; the canonical key is the minimum over the
4 x |W| choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import MalformedInput
from .geometry import RationalVector, build_polytope, check_budget
from .polysum import polyhedral_gauss_sum_direct, tetra_gauss_sum_formula
from .weyl import canonical_form, weyl_elements

FUNDAMENTAL_TETRAHEDRON = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))

DEFAULT_NS = (1, 2, 3, 4)
DEFAULT_TOL = 1e-6

# Canonical keys pack 12 coordinates in base 4B+1 into one int64.
_MAX_PACKED_BOUND = 9
_CHUNK = 1024  # tetrahedra canonicalised per step; one image gather stays in cache
_PAIR_CHUNK = 1 << 16  # (j, k) determinants held at once during enumeration

Tetra = tuple[tuple[int, int, int], ...]


def _candidate_tetrahedra(B: int) -> np.ndarray:
    """(m, 4, 3) int8 vertices of the candidates conv{0, v1, v2, v3}, one per
    unordered triple of nonzero vectors in [-B, B]^3 that forms a basis of
    the integer lattice (determinant +-1), in index-triple order.

    For each first vector v_i, det(v_i, v_j, v_k) = (v_i x v_j) . v_k for
    all later j < k is one broadcast product of the normals v_i x v_j with
    the later vectors, held _PAIR_CHUNK entries at a time.  Only a primitive
    normal can reach +-1, so the other rows are skipped.
    """
    rng = np.arange(-B, B + 1, dtype=np.int16)
    vecs = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    vecs = vecs[np.any(vecs != 0, axis=1)]
    cols = vecs.T.copy()
    found = []
    count = 0
    for i in range(len(vecs) - 2):
        normals = np.cross(vecs[i], vecs[i + 1 :])
        js = np.flatnonzero(np.gcd.reduce(normals, axis=1) == 1)
        rows = max(1, _PAIR_CHUNK // (len(vecs) - i - 2))
        for s in range(0, len(js), rows):
            j = js[s : s + rows]
            n = normals[j]
            k0 = i + j[0] + 2  # the first k that can follow any j of this chunk
            c = cols[:, k0:]
            det = n[:, 0, None] * c[0] + n[:, 1, None] * c[1] + n[:, 2, None] * c[2]
            row, k = np.divmod(np.flatnonzero(np.abs(det) == 1), c.shape[1])
            j, k = j[row] + i + 1, k + k0
            keep = k > j
            triples = np.stack([np.full(keep.sum(), i), j[keep], k[keep]], axis=1)
            found.append(triples.astype(np.int16))
            count += len(triples)
        check_budget("candidate tetrahedra", count, "use a smaller bound")
    pts = np.zeros((count, 4, 3), dtype=np.int8)
    pts[:, 1:] = vecs.astype(np.int8)[np.concatenate(found)]
    return pts


def _vertex_codes(v: np.ndarray, B: int) -> np.ndarray:
    """Pack integer vectors with coordinates in [-2B, 2B] along the last
    axis into codes in base 4B+1, ordered as the vectors are."""
    base = 4 * B + 1
    shift = 2 * B
    return ((v[..., 0] + shift) * base + v[..., 1] + shift) * base + v[..., 2] + shift


def _image_table(B: int) -> np.ndarray:
    """((4B+1)^3, |W|) int32 table: entry [v, w] is the code of the image of
    the vector with code v under the w-th signed permutation.  Codes stay
    below (4B+1)^3, which int32 holds for every B up to _MAX_PACKED_BOUND."""
    rng = np.arange(-2 * B, 2 * B + 1, dtype=np.int64)
    vecs = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    images = np.einsum("wij,vj->vwi", weyl_elements(3), vecs)  # [v, w] = w(vecs[v])
    return _vertex_codes(images, B).astype(np.int32)


def _canonical_keys(pts: np.ndarray, B: int) -> np.ndarray:
    """Packed canonical key per tetrahedron, minimum over all origin choices
    and signed permutations (applied through `_image_table`) of the sorted
    vertex tuple.

    pts: (m, 4, 3) integer vertices with coordinates in [-B, B].  Translated
    coordinates live in [-2B, 2B], so each vertex packs into base 4B+1 and
    four vertices into one int64 for bounds up to 9.  The sort runs on the
    int32 table entries; they are widened to int64 before packing.
    """
    vert_cap = (4 * B + 1) ** 3
    table = _image_table(B)
    keys = np.empty(len(pts), dtype=np.int64)
    for s in range(0, len(pts), _CHUNK):
        chunk = pts[s : s + _CHUNK].astype(np.intp)
        # codes[:, k, j]: vertex j translated so that vertex k is the origin
        codes = _vertex_codes(chunk[:, None, :, :] - chunk[:, :, None, :], B)
        best = None
        for k in range(4):
            a, b, c, d = (table[codes[:, k, j]] for j in range(4))  # (m, |W|)
            # five-comparator network: afterwards a <= b <= c <= d
            a, b = np.minimum(a, b), np.maximum(a, b)
            c, d = np.minimum(c, d), np.maximum(c, d)
            a, c = np.minimum(a, c), np.maximum(a, c)
            b, d = np.minimum(b, d), np.maximum(b, d)
            b, c = np.minimum(b, c), np.maximum(b, c)
            a = a.astype(np.int64)  # packing overflows int32
            key = (((a * vert_cap + b) * vert_cap + c) * vert_cap + d).min(axis=1)
            best = key if best is None else np.minimum(best, key)
        keys[s : s + len(chunk)] = best
    return keys


def _decode_key(key: int, B: int) -> Tetra:
    base = 4 * B + 1
    shift = 2 * B
    vert_cap = base ** 3
    verts = []
    for _ in range(4):
        key, vk = divmod(key, vert_cap)
        x, rest = divmod(vk, base * base)
        y, z = divmod(rest, base)
        verts.append((int(x - shift), int(y - shift), int(z - shift)))
    return tuple(reversed(verts))


def _enumerate(B: int) -> tuple[int, list[tuple[int, Tetra]]]:
    """All distinct orbits within the bound.

    Returns (count of unimodular candidates before deduplication, list of
    (packed canonical key, first-seen representative)) sorted by key.
    """
    if B < 1:
        raise MalformedInput(f"coordinate bound must be >= 1, got {B}")
    if B > _MAX_PACKED_BOUND:
        raise MalformedInput(
            f"coordinate bound {B} exceeds the packed-key limit {_MAX_PACKED_BOUND}"
        )
    pts = _candidate_tetrahedra(B)
    uniq, first = np.unique(_canonical_keys(pts, B), return_index=True)
    orbits = [
        (key, tuple(map(tuple, pts[fi].tolist())))
        for key, fi in zip(uniq.tolist(), first.tolist())
    ]
    return len(pts), orbits


def enumerate_minimal_tetrahedra(B: int) -> Iterator[Tetra]:
    """Stream one representative per orbit of volume-1/6 tetrahedra
    conv{0, v1, v2, v3} with coordinates bounded by B, in a deterministic
    order.  Representatives are the first candidate encountered in scan
    order, so their coordinates stay within [-B, B]."""
    _, orbits = _enumerate(B)
    for _, rep in orbits:
        yield rep


@dataclass(frozen=True)
class GaussRelationResult:
    residuals: dict[int, float]
    passed: bool


def gauss_relation_test(
    tetra: Sequence,
    ns: Sequence[int] = DEFAULT_NS,
    tol: float = DEFAULT_TOL,
    route: str = "direct",
) -> GaussRelationResult:
    """Residual magnitudes |G_T(n) - G(n)^3 / 6| for each n, and whether all
    fall below the tolerance.

    route 'direct' enumerates dilates of the actual polytope; 'tetra' uses
    the dihedral-angle formula (volume-1/6 only)."""
    if route == "direct":
        P = build_polytope([RationalVector(p) for p in tetra])
        residuals = {
            n: abs(polyhedral_gauss_sum_direct(P, n).residual) for n in ns
        }
    elif route == "tetra":
        residuals = {n: abs(tetra_gauss_sum_formula(tetra, n).residual) for n in ns}
    else:
        raise MalformedInput(f"unknown route {route!r}")
    return GaussRelationResult(
        residuals=residuals, passed=all(r < tol for r in residuals.values())
    )


@dataclass(frozen=True)
class OrbitOutcome:
    canonical: Tetra
    representative: Tetra
    residuals: dict[int, float]
    passed: bool


@dataclass(frozen=True)
class ClassificationReport:
    bound: int
    ns: tuple[int, ...]
    tolerance: float
    candidates_scanned: int
    distinct_orbits: int
    passing_orbits: tuple[OrbitOutcome, ...]
    theorem_confirmed: bool
    min_rejection_residual: float | None
    pure_weyl_match: bool | None
    orbit_outcomes: tuple[OrbitOutcome, ...] = ()

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "ns": list(self.ns),
            "tolerance": self.tolerance,
            "candidates_scanned": self.candidates_scanned,
            "distinct_orbits": self.distinct_orbits,
            "passing_orbits": [
                {
                    "canonical": [list(v) for v in o.canonical],
                    "representative": [list(v) for v in o.representative],
                    "residuals": {str(n): r for n, r in sorted(o.residuals.items())},
                }
                for o in self.passing_orbits
            ],
            "theorem_confirmed": self.theorem_confirmed,
            "min_rejection_residual": self.min_rejection_residual,
            "pure_weyl_match": self.pure_weyl_match,
        }


def _test_orbit(args: tuple[Tetra, tuple[int, ...], float, str]) -> GaussRelationResult:
    rep, ns, tol, route = args
    return gauss_relation_test(rep, ns, tol, route)


def _pure_weyl_equivalent(rep: Tetra, target: Tetra) -> bool:
    """Whether the two tetrahedra match under a signed permutation alone,
    after each is translated so its lexicographically least vertex sits at
    the origin."""

    def normalized(t: Tetra) -> set[tuple[int, ...]]:
        low = min(t)
        return {tuple(c - l for c, l in zip(v, low)) for v in t}

    a, b = normalized(rep), normalized(target)
    images = np.array(list(a)) @ weyl_elements(3).transpose(0, 2, 1)  # [w, j] = w(a[j])
    return any(set(map(tuple, img)) == b for img in images.tolist())


def run_theorem2_experiment(
    B: int,
    tol: float = DEFAULT_TOL,
    ns: Sequence[int] = DEFAULT_NS,
    route: str = "direct",
    workers: int = 1,
) -> ClassificationReport:
    """The full search at coordinate bound B.

    Enumerates orbits, tests every representative against the closed-form
    relation for each n, and checks that the passing orbits are exactly the
    orbit of the reference tetrahedron conv{0, e1, e1+e2, e1+e2+e3}.  The
    minimum over rejected orbits of their worst residual is reported so the
    pass/fail separation is measured rather than assumed.
    """
    if workers < 1:
        raise MalformedInput(f"workers must be >= 1, got {workers}")
    if not (math.isfinite(tol) and tol > 0):
        raise MalformedInput(f"tolerance must be finite and positive, got {tol}")
    ns = tuple(ns)
    if not ns:
        raise MalformedInput("ns: expected at least one modulus")
    scanned, orbits = _enumerate(B)
    jobs = [(rep, ns, tol, route) for _, rep in orbits]
    if workers > 1:
        import multiprocessing  # only a pool needs it; deferred to keep start-up short

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_test_orbit, jobs, chunksize=32)
    else:
        results = [_test_orbit(j) for j in jobs]

    reference = canonical_form(FUNDAMENTAL_TETRAHEDRON)
    outcomes: list[OrbitOutcome] = []
    min_reject: float | None = None
    for (key, rep), res in zip(orbits, results):
        outcomes.append(
            OrbitOutcome(
                canonical=_decode_key(key, B),
                representative=rep,
                residuals=res.residuals,
                passed=res.passed,
            )
        )
        if not res.passed:
            worst = max(res.residuals.values())
            if min_reject is None or worst < min_reject:
                min_reject = worst
    passing = [o for o in outcomes if o.passed]
    # Each canonical is a decoded packed key, which is canonical_form's
    # minimum taken over the same tuples in the same order.
    matching = [o for o in passing if o.canonical == reference]
    confirmed = bool(passing) and len(matching) == len(passing)
    # Reported for the orbits that match the reference: does a signed
    # permutation alone (after lexmin translation) already carry the
    # representative onto the reference tetrahedron?
    pure_weyl = (
        all(
            _pure_weyl_equivalent(o.representative, FUNDAMENTAL_TETRAHEDRON)
            for o in matching
        )
        if matching
        else None
    )
    return ClassificationReport(
        bound=B,
        ns=ns,
        tolerance=tol,
        candidates_scanned=scanned,
        distinct_orbits=len(orbits),
        passing_orbits=tuple(passing),
        theorem_confirmed=confirmed,
        min_rejection_residual=min_reject,
        pure_weyl_match=pure_weyl,
        orbit_outcomes=tuple(outcomes),
    )
