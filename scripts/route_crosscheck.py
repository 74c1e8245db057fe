#!/usr/bin/env python3
"""Cross-validate the three G_P(n) evaluation routes on random inputs.

Direct enumeration is the ground truth; the folded route must agree on any
lattice polytope, and the edge-formula route on any volume-1/6 tetrahedron.
Prints the worst absolute deviation seen for each pair.
"""

import argparse
import random
import sys

sys.dont_write_bytecode = True

from polygauss.errors import PolyGaussError
from polygauss.geometry import RationalVector, build_polytope, det3
from polygauss.polysum import (
    polyhedral_gauss_sum_direct,
    polyhedral_gauss_sum_folded,
    tetra_gauss_sum_formula,
)


def random_polytope(rng: random.Random, dim: int, span: int):
    while True:
        pts = [
            tuple(rng.randint(-span, span) for _ in range(dim))
            for _ in range(rng.randint(dim + 1, dim + 4))
        ]
        try:
            return build_polytope([RationalVector(p) for p in pts])
        except PolyGaussError:
            continue


def random_minimal_tetra(rng: random.Random, span: int):
    while True:
        vs = [tuple(rng.randint(-span, span) for _ in range(3)) for _ in range(3)]
        if abs(det3(*vs)) == 1:
            return ((0, 0, 0),) + tuple(vs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--polytopes", type=int, default=20)
    ap.add_argument("--tetrahedra", type=int, default=50)
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--span", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    worst_fold = 0.0
    for _ in range(args.polytopes):
        P = random_polytope(rng, rng.randint(1, 3), args.span)
        for n in range(1, args.max_n + 1):
            d = polyhedral_gauss_sum_direct(P, n)
            f = polyhedral_gauss_sum_folded(P, n)
            worst_fold = max(worst_fold, abs(d.value - f.value))
    print(f"direct vs folded over {args.polytopes} polytopes,"
          f" n <= {args.max_n}: worst |diff| = {worst_fold:.3e}")

    worst_tet = 0.0
    for _ in range(args.tetrahedra):
        T = random_minimal_tetra(rng, args.span)
        P = build_polytope([RationalVector(v) for v in T])
        for n in range(1, args.max_n + 1):
            d = polyhedral_gauss_sum_direct(P, n)
            t = tetra_gauss_sum_formula(T, n)
            worst_tet = max(worst_tet, abs(d.value - t.value))
    print(f"direct vs edge formula over {args.tetrahedra} minimal tetrahedra,"
          f" n <= {args.max_n}: worst |diff| = {worst_tet:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
