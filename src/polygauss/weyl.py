"""Signed-permutation symmetry: the hyperoctahedral group W, the full group
G of signed permutations combined with integer translations, orbit sums,
multi-tiling verification, and canonicalization of lattice simplices up to
G-equivalence.

W has one form, weyl_elements(d): a read-only stack of the 2^d d! signed
permutation matrices.  An element w acts on column vectors, w(x) = w @ x,
so a point set stored as rows maps by points @ w.T; every w is orthogonal
with integer entries, so it preserves the integer lattice and the
Euclidean norm, and its inverse is its transpose.

Orbit sums are one vectorised integer query.  For x = a/q the G-orbit is
the set of points (u + q lam)/q with u = w a mod q over w in W and lam
integral.  The distinct images u, the translations lam that can reach P's
bounding box and the facet slacks of every candidate are int64 arrays, and
the candidates inside P are located on their faces by
geometry.locate_points, the lookup scan_lattice uses.  A polytope with more
than geometry.POINT_BUDGET (candidate, facet) pairs, |W| x (bounding-box
extents) x facets, raises MalformedInput before any candidate exists.
Points enter as integer numerators a over a denominator q: multitiling_check
draws them so over the prime SAMPLE_DENOMINATOR, and f_P converts its
rational x once.
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
from .errors import MalformedInput, UnsupportedDimension
from .geometry import (
    Polytope,
    RationalVector,
    check_budget,
    integer_facet_system,
    integer_points,
    locate_points,
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
    integer facet system A y <= c, the translations mu in
    0 .. floor(hi) - floor(lo) per axis, and the largest bound
    sum_i |A_ki| E_i over the facets, with E the extents of mu."""
    lo, hi = P.bbox()
    corner = [math.floor(v) for v in lo]
    extents = [math.floor(h) - l + 1 for l, h in zip(corner, hi)]
    A, c = integer_facet_system(P)
    check_budget(
        "orbit candidate-facet pairs",
        len(weyl_elements(P.dim)) * math.prod(extents) * len(A),
        "use a smaller polytope",
    )
    rows = A.tolist()
    shifted = [b - sum(a * l for a, l in zip(row, corner)) for row, b in zip(rows, c.tolist())]
    reach = max(sum(abs(a) * e for a, e in zip(row, extents)) for row in rows)
    mu = np.indices(extents, dtype=np.int64).reshape(P.dim, -1).T
    return A, np.array(shifted, dtype=np.int64), mu, reach


def _orbit_face_ids(P: Polytope, frame: tuple, a: Sequence[int], q: int) -> np.ndarray:
    """Face id of P at each distinct point of the G-orbit of x = a/q inside
    P, for integer numerators a and denominator q >= 1, with
    frame = _orbit_frame(P).

    With a reduced mod q (the orbit is the same), the images
    u = w a mod q over w in W are deduplicated by a lexicographic sort,
    exact for any q: images distinct mod q give disjoint point sets.  An
    orbit point z/q = u/q + lam lies in the bounding box only for
    floor(lo) <= lam <= floor(hi), as 0 <= u/q < 1, so with
    lam = floor(lo) + mu the candidates are z = u + q mu, tested against
    A z <= q c on P - floor(lo).
    """
    A, c, mu, reach = frame
    # 0 <= z_i < q E_i and |c_k| <= sum_i |A_ki| E_i because facet k is
    # tight on P - floor(lo), which lies in [0, E); so every slack
    # q c_k - A_k z is below 2 q reach in magnitude, whatever P's position.
    if 2 * q * reach >= 1 << 63:
        raise MalformedInput(f"orbit of a point with denominator {q} overflows int64")
    u = weyl_elements(P.dim) @ np.array([v % q for v in a], dtype=np.int64) % q
    u = u[np.lexsort(u.T)]
    u = u[np.r_[True, (u[1:] != u[:-1]).any(axis=1)]]
    z = (u[:, None, :] + q * mu).reshape(-1, P.dim)
    qc = q * c
    z = z[(z @ A.T <= qc).all(axis=1)]
    return locate_points(P, z, A, qc)


def f_P(P: Polytope, x: RationalVector) -> float:
    """The orbit sum f(x) = sum over g in G of the solid angle of P at g(x),
    where G combines signed permutations with integer translations.  Only
    finitely many terms are nonzero since P is bounded; they are summed by
    math.fsum, so the value does not depend on their order."""
    q = math.lcm(*(v.denominator for v in x.coords))
    a = [v.numerator * (q // v.denominator) for v in x.coords]
    ids = _orbit_face_ids(P, _orbit_frame(P), a, q)
    return math.fsum(face_angle(P, f) for f in ids.tolist())


SAMPLE_DENOMINATOR = 10007  # prime; boundary strata of lattice polytopes
                            # under G have denominators dividing small
                            # integers, so a/10007 never lands on them


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
    top = (q - 1) // 2
    nums = rng.sample(range(1, top + 1), d)
    nums.sort()
    return nums


def multitiling_check(
    P: Polytope, sample_count: int = 200, seed: int = 0
) -> MultiTilingReport:
    """Sampled multi-tiling verification.

    Draws generic rational points in the open fundamental region and counts
    the G-orbit points falling in P, each count one vectorised int64 query
    (_orbit_face_ids); a sample whose orbit touches the boundary of P is
    redrawn.  Accepts only if every count equals the same integer m and
    m = |W| vol(P) exactly; any deviating sample is returned as a witness.
    Rejections are certificates; acceptance is probabilistic in the
    samples.  A polytope whose |W| x (bounding-box extents) orbit
    candidates exceed geometry.POINT_BUDGET raises MalformedInput.
    """
    if sample_count < 1:
        raise MalformedInput(f"sample_count must be >= 1, got {sample_count}")
    d = P.dim
    frame = _orbit_frame(P)
    expected_frac = len(weyl_elements(d)) * volume(P)
    expected = int(expected_frac) if expected_frac.denominator == 1 else None
    rng = random.Random(seed)
    q = SAMPLE_DENOMINATOR
    witnesses: list[tuple[tuple[str, ...], int]] = []
    checked = 0
    redraws = 0
    while checked < sample_count:
        a = _sample_fundamental_point(rng, d, q)
        ids = _orbit_face_ids(P, frame, a, q)
        hits = len(ids)
        # a/q is in lowest terms: q is prime and 1 <= a < q/2
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


def canonical_form(points: Sequence) -> tuple[tuple[int, ...], ...]:
    """Canonical representative of a lattice simplex under signed
    permutations and integer translations.

    Minimum, over every choice of vertex translated to the origin and every
    signed permutation, of the lexicographically sorted vertex tuple.  Two
    simplices are equivalent under the full group iff their canonical forms
    coincide.
    """
    pts = np.array(
        integer_points(points, "canonical form is defined for integer vertices only"),
        dtype=object,  # Python ints: exact at any size
    )
    images = pts @ weyl_elements(pts.shape[1]).transpose(0, 2, 1)  # [w, j] = w(pts[j])
    # [w, k, j]: image j translated by image k to the origin
    shifted = images[:, None] - images[:, :, None]
    return min(
        tuple(sorted(map(tuple, s))) for s in shifted.reshape(-1, *pts.shape).tolist()
    )
