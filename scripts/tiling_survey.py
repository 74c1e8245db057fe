#!/usr/bin/env python3
"""Survey the bundled polytopes: volume, multi-tiling status, and the
residual of G_P(n) against the closed form vol(P) * G(n)^d, for the
lattice polytopes among them.

A polytope that multi-tiles under signed permutations and integer
translations must show vanishing residuals for every n; a polytope that
fails the tiling check is expected to miss the closed form at some n.
"""

import argparse
import pathlib
import sys

sys.dont_write_bytecode = True

from polygauss.errors import MalformedInput
from polygauss.geometry import polytope_from_dict, volume
from polygauss.polysum import polyhedral_gauss_sum_direct
from polygauss.weyl import multitiling_check

import json

DATA = pathlib.Path(__file__).resolve().parent.parent / "data" / "polytopes"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--max-n", type=int, default=6)
    args = ap.parse_args()

    for path in sorted(DATA.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            P = polytope_from_dict(json.load(fh))
        tiling = multitiling_check(P, sample_count=args.samples, seed=0)
        try:
            worst = max(
                abs(polyhedral_gauss_sum_direct(P, n).residual)
                for n in range(1, args.max_n + 1)
            )
            residual = f"worst residual n<={args.max_n}: {worst:.2e}"
        except MalformedInput:  # G_P(n) needs integer vertices
            residual = "not a lattice polytope"
        status = (f"multi-tiles m={tiling.multiplicity}"
                  if tiling.is_multitiling else "no tiling")
        print(f"{path.stem:18s} dim {P.dim}  vol {str(volume(P)):>5s}  "
              f"{status:18s} {residual}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
