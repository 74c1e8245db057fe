"""Signed-permutation symmetry: the hyperoctahedral group W, the full group
G of signed permutations combined with integer translations, orbit sums,
multi-tiling verification, and canonicalization of lattice simplices up to
G-equivalence.

W has one form, weyl_elements(d): a read-only stack of the 2^d d! signed
permutation matrices.  An element w acts on column vectors, w(x) = w @ x,
so a point set stored as rows maps by points @ w.T; every w is orthogonal
with integer entries, so it preserves the integer lattice and the
Euclidean norm, and its inverse is its transpose.

Orbit counts are one vectorised integer query over a batch of points.
For x = a/q the G-orbit is the set of points (u + q lam)/q with
u = w a mod q over w in W and lam integral.  The distinct images are
found without a sort, each keyed by which of the signed coordinates
+-a_i mod q its coordinates take.  A candidate's facet slacks split
into a part per distinct image u of the batch and a part per translation
lam that can carry one of those images into P's bounding box, two int64
arrays, so no candidate point is formed: it lies in P where every image
part is at least its translation part, on the face of the facets where
they are equal.  As 0 <= u_i < q, the top translation of a lattice
polytope's box holds only images with a u_i = 0, so a generic sample
meets one translation fewer per axis.  A polytope with more than
geometry.POINT_BUDGET (candidate, facet) pairs per point,
|W| x (bounding-box extents) x facets, raises MalformedInput before any
candidate is tested.  Points enter as integer numerators a over a
denominator q: multitiling_check draws them so over the prime
SAMPLE_DENOMINATOR, in batches of about _ORBIT_BATCH_CELLS (image,
translation, facet) tests, and f_P converts its rational x once, reduced
mod q, and queries it alone.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .angles import face_angle
from .errors import DegenerateInput, DimensionMismatch, MalformedInput, UnsupportedDimension
from .geometry import (
    Polytope,
    Rational,
    RationalVector,
    as_vector,
    check_budget,
    check_positive_int,
    face_ids_of_tight,
    integer_facet_system,
    integer_points,
    volume,
)


@lru_cache(maxsize=8)
def weyl_elements(d: int) -> np.ndarray:
    """W as one read-only (2^d d!, d, d) int64 stack of signed permutation
    matrices: the permutations p in lexicographic order, and for each the
    sign patterns s in the order of itertools.product((1, -1), repeat=d).
    Row i of the matrix for (p, s) has s[i] in column p[i]."""
    if not 1 <= d <= 3:
        raise UnsupportedDimension(f"dimension {d} not in 1..3")
    unsigned = np.eye(d, dtype=np.int64)[list(itertools.permutations(range(d)))]
    flips = np.array(list(itertools.product((1, -1), repeat=d)), dtype=np.int64)
    W = (unsigned[:, None] * flips[None, :, :, None]).reshape(-1, d, d)
    W.setflags(write=False)  # cached and shared by every caller
    return W


def _orbit_frame(P: Polytope) -> tuple:
    """The x-independent part of the orbit count: P - floor(lo) as the
    integer facet system A y <= c, its box [lo', hi'] as per-axis pairs of
    numerators over P's denominator, the largest bound sum_i |A_ki| E_i
    over the facets with E_i = floor(hi'_i) + 1 translations per axis, and
    |W| x prod E x facets, the most (image, translation, facet) tests a
    sample needs."""
    q = P.denominator
    axes = list(zip(*P.numerators))
    corner = [min(c) // q for c in axes]
    box = [(min(c) - q * k, max(c) - q * k) for c, k in zip(axes, corner)]
    extents = [h // q + 1 for _, h in box]
    A, c = integer_facet_system(P)
    cells = len(weyl_elements(P.dim)) * math.prod(extents) * len(A)
    check_budget("orbit candidate-facet pairs", cells, "use a smaller polytope")
    rows = A.tolist()
    shifted = [b - sum(a * l for a, l in zip(row, corner)) for row, b in zip(rows, c.tolist())]
    reach = max(sum(abs(a) * e for a, e in zip(row, extents)) for row in rows)
    return A, np.array(shifted, dtype=np.int64), box, reach, cells


def _translations(P: Polytope, box: list, low: int, high: int, q: int) -> np.ndarray:
    """The (d, T) grid of translations mu of the box [lo', hi'] that can
    hold an image u/q with low <= u_i <= high: mu_i from
    ceil(lo'_i - high/q) to floor(hi'_i - low/q), in exact integers, which
    lies in 0 .. floor(hi'_i) as 0 <= lo'_i < 1 and 0 <= u_i < q."""
    p, r = P.denominator, P.denominator * q
    ends = [(-((high * p - l * q) // r), (h * q - low * p) // r) for l, h in box]
    mu = np.indices([max(top - bottom + 1, 0) for bottom, top in ends], dtype=np.int64)
    return mu.reshape(P.dim, -1) + np.array([bottom for bottom, _ in ends])[:, None]


@lru_cache(maxsize=8)
def _image_keys(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 tables that key the images w a of a sample by its
    2d signed coordinates, slot i < d holding a_i and slot d + i holding
    -a_i: weights[k, w] is (2d)^j if coordinate j of w a is slot k, else
    0, and slots[key] lists the d slots that a key below (2d)^d names."""
    W = weyl_elements(d)
    place = (2 * d) ** np.arange(d, dtype=np.int64)
    weights = np.concatenate([((W == s) * place[:, None]).sum(axis=1).T for s in (1, -1)])
    slots = np.arange((2 * d) ** d)[:, None] // place % (2 * d)
    for t in (weights, slots):
        t.setflags(write=False)  # cached and shared by every caller
    return weights, slots


def _orbit_face_ids(
    P: Polytope, frame: tuple, a: Sequence[Sequence[int]], q: int
) -> tuple[np.ndarray, np.ndarray]:
    """(sample, face id) for every distinct point of P in the G-orbit of
    each sample x_s = a[s]/q, in sample order, for an (S, d) array of
    integer numerators a within int64 and a denominator q >= 1, with
    frame = _orbit_frame(P).

    With a reduced mod q (the orbit is the same), coordinate j of an image
    u = w a mod q is one of the sample's 2d signed coordinates +-a_i mod q,
    and which one depends on w alone.  Each signed coordinate is named by
    the first slot that holds its value, and each image is keyed by the
    names of its d coordinates in base 2d: two images of a sample are equal
    exactly when their keys are, and every key is below (2d)^d <= 216
    whatever q is.  One bool per (sample, key) marks the images present,
    so the distinct images come out in sample order with no sort, and
    each is gathered back from its sample's signed coordinates.  Images
    distinct mod q give disjoint point sets.  With lam = floor(lo) + mu the
    candidates are z = u + q mu, tested against A z <= q c on P - floor(lo)
    through their slacks (q c - A u) - q (A mu), whose two parts are equal
    on the facets a candidate is tight on.  As 0 <= u_i < q, mu runs over
    what _translations keeps for the batch's least and greatest u_i, its
    least and greatest signed coordinate (W puts each on every axis):
    0 .. E_i - 2 for a lattice P and images with no u_i = 0.
    """
    A, c, box, reach, _ = frame
    # 0 <= z_i < q E_i and |c_k| <= sum_i |A_ki| E_i because facet k is
    # tight on P - floor(lo), which lies in [0, E); so every slack
    # q c_k - A_k z, and each of its two parts, is below 2 q reach in
    # magnitude, whatever P's position.
    if 2 * q * reach >= 1 << 63:
        raise MalformedInput(f"orbit of a point with denominator {q} overflows int64")
    a = np.array(a, dtype=np.int64) % q
    signed = np.concatenate([a, -a % q], axis=1)  # (S, 2d) signed coordinates
    names = (signed[:, :, None] == signed[:, None, :]).argmax(axis=2)  # first equal slot
    weights, slots = _image_keys(P.dim)
    keys = names @ weights + len(slots) * np.arange(len(a))[:, None]  # [s, w]
    present = np.zeros(len(a) * len(slots), dtype=bool)
    present[keys] = True
    owner, key = np.nonzero(present.reshape(len(a), len(slots)))
    u = signed.take(slots[key] + signed.shape[1] * owner[:, None])
    # facet k's slack at u + q mu is room[k, image] - step[k, shift]: one
    # bool per (facet, image, translation) compares the parts, and facet by
    # facet their equality gives the inside candidates' tight rows
    room = q * c[:, None] - A @ u.T
    step = q * (A @ _translations(P, box, int(signed.min()), int(signed.max()), q))
    inside = np.logical_and.reduce(room[:, :, None] >= step[:, None, :], axis=0)
    image, shift = np.nonzero(inside)
    return owner[image], face_ids_of_tight(P, (r[image] == s[shift] for r, s in zip(room, step)))


def f_P(P: Polytope, x: RationalVector | Sequence[Rational | str]) -> float:
    """The orbit sum f(x) = sum over g in G of the solid angle of P at g(x),
    where G combines signed permutations with integer translations.  Only
    finitely many terms are nonzero since P is bounded; they are summed by
    math.fsum, so the value does not depend on their order."""
    x = as_vector(x)
    if x.dim != P.dim:
        raise DimensionMismatch(f"point has dimension {x.dim}, polytope {P.dim}")
    q = math.lcm(*(v.denominator for v in x.coords))
    a = [v.numerator * (q // v.denominator) % q for v in x.coords]  # same orbit, within int64
    _, ids = _orbit_face_ids(P, _orbit_frame(P), [a], q)
    return math.fsum(face_angle(P, f) for f in ids.tolist())


SAMPLE_DENOMINATOR = 10007  # prime; boundary strata of lattice polytopes
                            # under G have denominators dividing small
                            # integers, so a/10007 never lands on them
_ORBIT_BATCH_CELLS = 1 << 17  # (image, translation, facet) tests per
                              # orbit query of multitiling_check


@dataclass(frozen=True)
class MultiTilingReport:
    is_multitiling: bool
    multiplicity: int | None
    samples_checked: int
    witnesses: tuple[tuple[tuple[str, ...], int], ...] = ()
    expected: int | None = None

    def to_dict(self) -> dict:
        return {
            "is_multitiling": self.is_multitiling,
            "multiplicity": self.multiplicity,
            "samples_checked": self.samples_checked,
            "expected": self.expected,
            "witnesses": [
                {"point": list(pt), "count": c} for pt, c in self.witnesses
            ],
        }


def _sample_fundamental_point(rng: random.Random, d: int, q: int) -> list[int]:
    """The numerators a of a random point a/q strictly inside
    0 < x_1 < ... < x_d < 1/2."""
    return sorted(rng.sample(range(1, (q - 1) // 2 + 1), d))


def multitiling_check(
    P: Polytope, sample_count: int = 200, seed: int = 0
) -> MultiTilingReport:
    """Sampled multi-tiling verification.

    Draws generic rational points in the open fundamental region and counts
    the G-orbit points falling in P; a sample whose orbit touches the
    boundary of P is redrawn.  Accepts only if every count equals the same
    integer m and m = |W| vol(P) exactly; any deviating sample is returned
    as a witness.  Rejections are certificates; acceptance is probabilistic
    in the samples.

    Samples are drawn in batches, and each batch's orbits are counted by
    one vectorised int64 query (_orbit_face_ids) of at most
    _ORBIT_BATCH_CELLS (image, translation, facet) tests, or one sample's
    worth if that is more, and the first batch holds at most the five
    samples that can reject P; the results are then read in draw order, so
    the report does not depend on the batch size.  Memory is thus
    O(_ORBIT_BATCH_CELLS) beyond what one sample needs.  A polytope whose
    |W| x (bounding-box extents) x facets tests for one sample exceed
    geometry.POINT_BUDGET raises MalformedInput.
    """
    check_positive_int(sample_count, "sample_count")
    d = P.dim
    frame = _orbit_frame(P)
    batch = max(1, _ORBIT_BATCH_CELLS // frame[-1])
    expected_frac = len(weyl_elements(d)) * volume(P)
    expected = int(expected_frac) if expected_frac.denominator == 1 else None
    rng = random.Random(seed)
    q = SAMPLE_DENOMINATOR
    witnesses: list[tuple[tuple[str, ...], int]] = []
    checked = 0
    redraws = 0
    size = min(5, batch)  # five witnesses end the check, so a polytope
                          # rejected by its first samples draws no more
    while checked < sample_count and redraws <= 50 and len(witnesses) < 5:
        draws = [
            _sample_fundamental_point(rng, d, q)
            for _ in range(min(size, sample_count - checked))
        ]
        size = batch
        owner, ids = _orbit_face_ids(P, frame, draws, q)
        counts = np.bincount(owner, minlength=len(draws)).tolist()
        touches = np.zeros(len(draws), dtype=bool)
        touches[owner[ids != P.full_face_id]] = True
        for a, hits, touch in zip(draws, counts, touches.tolist()):
            if touch:
                redraws += 1
                if redraws <= 50:
                    continue
            else:
                checked += 1
                if expected is not None and hits == expected:
                    continue
            # a/q is in lowest terms: q is prime and 1 <= a < q/2
            witnesses.append((tuple(f"{v}/{q}" for v in a), hits))
            if redraws > 50 or len(witnesses) >= 5:
                break
    ok = not witnesses and expected is not None
    return MultiTilingReport(
        is_multitiling=ok,
        multiplicity=expected if ok else None,
        samples_checked=checked,
        witnesses=tuple(witnesses),
        expected=expected,
    )


def canonical_form(points: Sequence) -> tuple[tuple[int, ...], ...]:
    """Canonical representative of a lattice simplex under signed
    permutations and integer translations.

    Minimum, over every choice of vertex translated to the origin and every
    signed permutation, of the lexicographically sorted vertex tuple.  Two
    simplices are equivalent under the full group iff their canonical forms
    coincide.
    """
    rows = integer_points(points, "canonical form is defined for integer vertices only")
    if not rows:
        raise DegenerateInput("empty point set")
    if any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatch("points of mixed dimensions")
    pts = np.array(rows, dtype=object)  # Python ints: exact at any size
    images = pts @ weyl_elements(pts.shape[1]).transpose(0, 2, 1)  # [w, j] = w(pts[j])
    # [w, k, j]: image j translated by image k to the origin
    shifted = images[:, None] - images[:, :, None]
    return min(
        tuple(sorted(map(tuple, s))) for s in shifted.reshape(-1, *pts.shape).tolist()
    )
