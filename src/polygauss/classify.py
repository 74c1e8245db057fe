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
all determinants of triples starting at v_i, and the index triples of the
ones equal to +-1 are kept in index-triple order.  Beyond them a step holds
O(N) normals and a fixed-size chunk of determinants for the N vectors of
the box, and the running candidate count is held to geometry.POINT_BUDGET,
so an oversized bound raises MalformedInput.

Canonicalization is by table lookup.  Each vertex translated to a chosen
origin packs into an integer code whose order is the lexicographic order of
vertices.  A code is affine in its vertex, so the code of v_j - v_k is
lin(v_j) - lin(v_k) + code(0), gathered through the candidate's index
triple.  A signed permutation is linear, so it maps codes to codes, and one
precomputed uint16 ((4B+1)^3, |W|) table holds every image.  The origin
always has code(0), so per origin only the three other codes are gathered
from the table, a chunk of candidates at a time, sorted by a three-comparator
network and packed into one int64 key; the canonical key is the minimum over
the 4 x |W| choices.  Inserting one common element into two sorted tuples
keeps their lexicographic order, so the keys order orbits as canonical_form
does, np.unique keeps the same first-seen representatives, and decoding puts
the origin back.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import MalformedInput
from .geometry import build_polytope, check_budget, check_positive_int
# polyhedral_gauss_sum_direct is no longer called here; it stays importable
# from classify because perfbench/tracing.py patches it at this name.
from .polysum import (  # noqa: F401
    polyhedral_gauss_sum_direct,
    polyhedral_gauss_sums_direct,
    tetra_gauss_sum_formula,
)
from .weyl import canonical_form, weyl_elements

FUNDAMENTAL_TETRAHEDRON = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))

DEFAULT_NS = (1, 2, 3, 4)
DEFAULT_TOL = 1e-6

# Codes below (4B+1)^3 <= 37^3 fit the uint16 image table; three pack below 2^63.
_MAX_PACKED_BOUND = 9
_CHUNK = 1024  # candidates canonicalised per step; one image gather stays in cache
_PAIR_CHUNK = 1 << 16  # (j, k) determinants held at once during enumeration

Tetra = tuple[tuple[int, int, int], ...]


def _candidate_triples(B: int) -> tuple[np.ndarray, np.ndarray]:
    """The candidates conv{0, v_i, v_j, v_k} as (vecs, triples): the nonzero
    vectors of [-B, B]^3 as (N, 3) int16 in scan order, and as (m, 3) int16
    the index triples i < j < k whose vectors form a basis of the integer
    lattice (determinant +-1), in index-triple order.

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
        a0, a1, a2 = vecs[i].tolist()
        b0, b1, b2 = cols[:, i + 1 :]
        normals = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)  # v_i x v_j
        js = np.flatnonzero(np.gcd(np.gcd(*normals[:2]), normals[2]) == 1)
        rows = max(1, _PAIR_CHUNK // (len(vecs) - i - 2))
        for s in range(0, len(js), rows):
            j = js[s : s + rows]
            n0, n1, n2 = (n[j, None] for n in normals)
            k0 = i + j[0] + 2  # the first k that can follow any j of this chunk
            c = cols[:, k0:]
            det = n0 * c[0] + n1 * c[1] + n2 * c[2]
            row, k = np.divmod(np.flatnonzero(np.abs(det) == 1), c.shape[1])
            j, k = j[row] + i + 1, k + k0
            keep = k > j
            triples = np.stack([np.full(keep.sum(), i), j[keep], k[keep]], axis=1)
            found.append(triples.astype(np.int16))
            count += len(triples)
        check_budget("candidate tetrahedra", count, "use a smaller bound")
    return vecs, np.concatenate(found)


def _vertex_codes(v: np.ndarray, B: int) -> np.ndarray:
    """Pack integer vectors with coordinates in [-2B, 2B] along the last
    axis into codes in base 4B+1, ordered as the vectors are."""
    base = 4 * B + 1
    shift = 2 * B
    return ((v[..., 0] + shift) * base + v[..., 1] + shift) * base + v[..., 2] + shift


def _image_table(B: int) -> np.ndarray:
    """((4B+1)^3, |W|) uint16 table: entry [v, w] is the code of the image
    of the vector with code v under the w-th signed permutation.  Codes stay
    below (4B+1)^3 <= 37^3 = 50653 for every B up to _MAX_PACKED_BOUND."""
    rng = np.arange(-2 * B, 2 * B + 1, dtype=np.int64)
    vecs = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    images = np.einsum("wij,vj->vwi", weyl_elements(3), vecs)  # [v, w] = w(vecs[v])
    return _vertex_codes(images, B).astype(np.uint16)


def _canonical_keys(vecs: np.ndarray, triples: np.ndarray, B: int) -> np.ndarray:
    """Canonical keys of the candidates conv{0, v_i, v_j, v_k}, packed as the
    module docstring describes; vecs are (N, 3) integer vectors with
    coordinates in [-B, B], triples (m, 3) indices into them."""
    vert_cap = (4 * B + 1) ** 3
    centre = int(_vertex_codes(np.zeros(3, dtype=np.int64), B))
    lin = _vertex_codes(vecs.astype(np.intp), B) - centre
    table = _image_table(B)
    keys = np.empty(len(triples), dtype=np.int64)
    for s in range(0, len(triples), _CHUNK):
        a, b, c = lin[triples[s : s + _CHUNK]].T
        best = None
        # lin of the vertices off the origin, for the origin at 0, v_i, v_j and v_k
        for off in ((a, b, c), (-a, b - a, c - a), (-b, a - b, c - b), (-c, a - c, b - c)):
            x, y, z = (table.take(u + centre, axis=0) for u in off)  # (m, |W|)
            # three-comparator network: afterwards x <= y <= z
            x, y = np.minimum(x, y), np.maximum(x, y)
            y, z = np.minimum(y, z), np.maximum(y, z)
            x, y = np.minimum(x, y), np.maximum(x, y)
            key = ((x.astype(np.int64) * vert_cap + y) * vert_cap + z).min(axis=1)
            best = key if best is None else np.minimum(best, key)
        keys[s : s + len(best)] = best
    return keys


def _decode_key(key: int, B: int) -> Tetra:
    base = 4 * B + 1
    xyz = [key // base**e % base - 2 * B for e in range(8, -1, -1)]  # nine digits
    return tuple(sorted([(0, 0, 0), *zip(xyz[0::3], xyz[1::3], xyz[2::3])]))


def _enumerate(B: int) -> tuple[int, list[tuple[int, Tetra]]]:
    """All distinct orbits within the bound.

    Returns (count of unimodular candidates before deduplication, list of
    (packed canonical key, first-seen representative)) sorted by key.
    """
    check_positive_int(B, "coordinate bound")
    if B > _MAX_PACKED_BOUND:
        raise MalformedInput(
            f"coordinate bound {B} exceeds the packed-key limit {_MAX_PACKED_BOUND}"
        )
    vecs, triples = _candidate_triples(B)
    uniq, first = np.unique(_canonical_keys(vecs, triples, B), return_index=True)
    reps = vecs[triples[first]].tolist()
    orbits = [(key, ((0, 0, 0), *map(tuple, rep))) for key, rep in zip(uniq.tolist(), reps)]
    return len(triples), orbits


def enumerate_minimal_tetrahedra(B: int) -> Iterator[Tetra]:
    """An iterator over one representative per orbit of volume-1/6
    tetrahedra conv{0, v1, v2, v3} with coordinates bounded by B, in a
    deterministic order; B is checked, and the orbits found, before it
    returns.  Representatives are the first candidate encountered in scan
    order, so their coordinates stay within [-B, B]."""
    _, orbits = _enumerate(B)
    return (rep for _, rep in orbits)


def _checked_ns(ns: Sequence[int]) -> tuple[int, ...]:
    """ns as a tuple of built-in ints, refused unless it holds a modulus,
    each an integer >= 1, and none twice."""
    ns = tuple(ns)
    if not ns:
        raise MalformedInput("ns: expected at least one modulus")
    for n in ns:
        check_positive_int(n, "modulus")
    ns = tuple(map(operator.index, ns))  # numpy integers too, so reports serialise
    if len(set(ns)) < len(ns):
        raise MalformedInput(f"ns: a modulus is repeated in {list(ns)}")
    return ns


def _check_tol(tol: float) -> None:
    """Raise MalformedInput unless tol is a finite real number > 0; bools
    do not count."""
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and math.isfinite(tol) and tol > 0):
        raise MalformedInput(f"tolerance must be finite and positive, got {tol!r}")


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

    route 'direct' counts the lattice points of the actual polytope's
    dilates, every n from one scan of lcm(ns) T where that stays small;
    'tetra' uses the dihedral-angle formula (volume-1/6 only)."""
    ns = _checked_ns(ns)
    _check_tol(tol)
    if route == "direct":
        reports = polyhedral_gauss_sums_direct(build_polytope(tetra), ns)
        residuals = {r.n: abs(r.residual) for r in reports}
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
    pass/fail separation is measured rather than assumed.  With workers > 1
    the orbits are tested in a pool of at most os.cpu_count() processes;
    the report does not depend on the worker count.
    """
    check_positive_int(workers, "workers")
    _check_tol(tol)
    ns = _checked_ns(ns)
    if route not in ("direct", "tetra"):
        raise MalformedInput(f"unknown route {route!r}")
    scanned, orbits = _enumerate(B)
    jobs = [(rep, ns, tol, route) for _, rep in orbits]
    workers = min(workers, os.cpu_count() or 1)
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
