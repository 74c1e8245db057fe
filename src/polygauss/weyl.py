"""Signed-permutation symmetry: the hyperoctahedral group W, the full group
G of signed permutations combined with integer translations, orbit sums,
multi-tiling verification, and canonicalization of lattice simplices up to
G-equivalence.

The action convention is y = w(x) with y[i] = signs[i] * x[perm[i]]; this
preserves the integer lattice and the Euclidean norm.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .angles import face_angle
from .errors import MalformedInput, UnsupportedDimension
from .geometry import (
    Polytope,
    RationalVector,
    _integer_facet_system,
    integer_points,
    volume,
)


@dataclass(frozen=True)
class WeylElement:
    """One signed permutation: y[i] = signs[i] * x[perm[i]]."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.perm)

    def apply(self, x: RationalVector) -> RationalVector:
        return RationalVector(s * x[p] for p, s in zip(self.perm, self.signs))

    def apply_ints(self, x: Sequence[int]) -> tuple[int, ...]:
        return tuple(s * x[p] for p, s in zip(self.perm, self.signs))

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=np.int64)
        for i, (p, s) in enumerate(zip(self.perm, self.signs)):
            m[i, p] = s
        return m

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        perm = tuple(other.perm[p] for p in self.perm)
        signs = tuple(s * other.signs[p] for p, s in zip(self.perm, self.signs))
        return WeylElement(perm, signs)

    def inverse(self) -> "WeylElement":
        inv = [0] * self.dim
        for i, p in enumerate(self.perm):
            inv[p] = i
        return WeylElement(
            tuple(inv), tuple(self.signs[inv[j]] for j in range(self.dim))
        )

    @staticmethod
    def identity(d: int) -> "WeylElement":
        return WeylElement(tuple(range(d)), (1,) * d)


@lru_cache(maxsize=8)
def weyl_elements(d: int) -> tuple[WeylElement, ...]:
    """All 2^d d! signed permutations of d coordinates, in a fixed order."""
    if not 1 <= d <= 3:
        raise UnsupportedDimension(f"dimension {d} not in 1..3")
    out = []
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            out.append(WeylElement(perm, signs))
    return tuple(out)


def _common_denominator(x: RationalVector) -> tuple[tuple[int, ...], int]:
    q = 1
    for c in x.coords:
        q = q * c.denominator // math.gcd(q, c.denominator)
    return tuple(int(c * q) for c in x.coords), q


def _orbit_weight_sum(
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
    A, b = _integer_facet_system(P)
    A_rows = A.tolist()
    qb = [q * int(bi) for bi in b.tolist()]
    lo_f, hi_f = P.bbox()
    d = P.dim
    total = 0.0
    hits = 0
    boundary = False
    seen: set[tuple[int, ...]] = set()
    for w in weyl_elements(d):
        u = w.apply_ints(a)
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
                    tight_ids = frozenset(
                        i
                        for i, (row, bound) in enumerate(zip(A_rows, qb))
                        if bound == sum(r * zi for r, zi in zip(row, z))
                    )
                    fid = P.face_id_from_tight(tight_ids)
                    total += face_angle(P, fid)
                else:
                    total += 1.0
            else:
                total += 1.0
    return total, hits, boundary


def f_P(P: Polytope, x: RationalVector) -> float:
    """The orbit sum f(x) = sum over g in G of the solid angle of P at g(x),
    where G combines signed permutations with integer translations.  Only
    finitely many terms are nonzero since P is bounded."""
    total, _, _ = _orbit_weight_sum(P, x, indicator=False)
    return total


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


def _sample_fundamental_point(rng: random.Random, d: int, q: int) -> RationalVector:
    """A random rational point strictly inside 0 < x_1 < ... < x_d < 1/2,
    with denominator q."""
    top = (q - 1) // 2
    nums = rng.sample(range(1, top + 1), d)
    nums.sort()
    return RationalVector(Fraction(n, q) for n in nums)


def multitiling_check(
    P: Polytope, sample_count: int = 200, seed: int = 0
) -> MultiTilingReport:
    """Sampled multi-tiling verification.

    Draws generic rational points in the open fundamental region and counts
    the G-orbit points falling in P with exact arithmetic.  Accepts only if
    every count equals the same integer m and m = |W| vol(P) exactly; any
    deviating sample is returned as a witness.  Rejections are certificates;
    acceptance is probabilistic in the samples.
    """
    if sample_count < 1:
        raise MalformedInput(f"sample_count must be >= 1, got {sample_count}")
    d = P.dim
    expected_frac = len(weyl_elements(d)) * volume(P)
    expected = int(expected_frac) if expected_frac.denominator == 1 else None
    rng = random.Random(seed)
    witnesses: list[tuple[tuple[str, ...], int]] = []
    checked = 0
    redraws = 0
    while checked < sample_count:
        x = _sample_fundamental_point(rng, d, SAMPLE_DENOMINATOR)
        count, hits, boundary = _orbit_weight_sum(P, x, indicator=True)
        if boundary:
            redraws += 1
            if redraws > 50:
                witnesses.append(
                    (tuple(str(c) for c in x.coords), hits)
                )
                break
            continue
        checked += 1
        if expected is None or hits != expected:
            witnesses.append((tuple(str(c) for c in x.coords), hits))
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
    pts = integer_points(
        points, "canonical form is defined for integer vertices only"
    )
    d = len(pts[0])
    best = None
    for w in weyl_elements(d):
        images = [w.apply_ints(p) for p in pts]
        for origin in images:
            shifted = sorted(
                tuple(c - o for c, o in zip(img, origin)) for img in images
            )
            cand = tuple(shifted)
            if best is None or cand < best:
                best = cand
    return best
