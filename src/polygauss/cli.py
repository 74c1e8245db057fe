"""Command-line front end.

Subcommands:
    sum          evaluate G_P(n) for a polytope loaded from JSON
    check-tiling sample-based multi-tiling verification
    classify     the finite search over volume-1/6 tetrahedra
    angles       solid / dihedral angle report for a polytope
    gauss-table  table of the classical Gauss sum G(n) = G(1, n)

Exit codes: 0 success, 2 malformed input (bad JSON, bad dimension, bad
flags), 1 internal invariant violation.  Reports go to stdout, diagnostics
to stderr.  JSON output is deterministic: keys sorted, floats emitted with
shortest round-trip precision.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

from .angles import face_angle, tetrahedron_angles
from .classify import DEFAULT_NS, DEFAULT_TOL, run_theorem2_experiment
from .errors import MalformedInput, PolyGaussError
from .gauss import quad_gauss_closed, quad_gauss_direct
from .geometry import Polytope, check_budget, check_positive_int, polytope_from_dict, volume
from .polysum import (
    ROUTE_DIRECT,
    ROUTE_TETRA,
    polyhedral_gauss_sum_direct,
    tetra_gauss_sum_formula,
)
from .weyl import SAMPLE_DENOMINATOR, multitiling_check


def _load_polytope(path: str) -> Polytope:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path}: invalid JSON: {exc}")
    return polytope_from_dict(payload)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))


def _cmd_sum(args: argparse.Namespace) -> int:
    P = _load_polytope(args.polytope)
    if args.route == ROUTE_DIRECT:
        report = polyhedral_gauss_sum_direct(P, args.n)
    else:
        report = tetra_gauss_sum_formula([v.coords for v in P.vertices], args.n)
    if args.json:
        _emit_json(report.to_dict())
    else:
        v = report.value
        print(f"G_P({report.n}) = {v.real:+.12g} {v.imag:+.12g}i  [{report.route}]")
        print(f"points: {report.point_count}")
        print(
            f"residual vs vol*G(n)^d: {abs(report.residual):.6g}"
            f"  (vol = {volume(P)})"
        )
    return 0


def _cmd_check_tiling(args: argparse.Namespace) -> int:
    P = _load_polytope(args.polytope)
    report = multitiling_check(P, sample_count=args.samples, seed=args.seed)
    if args.json:
        _emit_json(report.to_dict())
    else:
        if report.is_multitiling:
            print(f"multi-tiles with multiplicity {report.multiplicity}")
        else:
            print("does not multi-tile")
            for pt, count in report.witnesses:
                print(f"  witness x = ({', '.join(pt)}): orbit weight {count},"
                      f" expected {report.expected}")
        print(f"samples checked: {report.samples_checked}"
              f" (denominator {SAMPLE_DENOMINATOR})")
    return 0


def _open_csv(path: str | None):
    """The --csv file, opened before the search so that a path that cannot
    be written fails at once; a null context without one."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise MalformedInput(f"{path}: {exc.strerror or exc}")


def _cmd_classify(args: argparse.Namespace) -> int:
    with _open_csv(args.csv) as fh:
        report = run_theorem2_experiment(
            args.bound,
            tol=args.tol,
            ns=DEFAULT_NS,
            route=args.route,
            workers=args.workers,
        )
        if fh is not None:
            writer = csv.writer(fh)
            writer.writerow(["canonical_vertices", "n", "abs_residual", "pass"])
            for o in report.orbit_outcomes:
                label = ";".join(",".join(str(c) for c in v) for v in o.canonical)
                for n in report.ns:
                    writer.writerow(
                        [label, n, repr(o.residuals[n]), o.passed]
                    )
            print(f"wrote {len(report.orbit_outcomes) * len(report.ns)} rows to"
                  f" {args.csv}", file=sys.stderr)
    if args.json:
        _emit_json(report.to_dict())
    elif not args.csv:
        print(f"bound {report.bound}: scanned {report.candidates_scanned}"
              f" candidates, {report.distinct_orbits} distinct orbits")
        print(f"passing orbits: {len(report.passing_orbits)}")
        for o in report.passing_orbits:
            worst = max(o.residuals.values())
            print(f"  {o.canonical}  worst residual {worst:.3g}")
        print(f"all passers match the reference orbit: {report.theorem_confirmed}")
        if report.min_rejection_residual is not None:
            print(f"closest rejected orbit missed by"
                  f" {report.min_rejection_residual:.6g}")
    return 0


def _cmd_angles(args: argparse.Namespace) -> int:
    P = _load_polytope(args.polytope)
    is_tetra = P.dim == 3 and len(P.vertices) == 4
    if is_tetra:
        data = tetrahedron_angles(P.vertices)
        payload = {
            "solid": list(data.solid),
            "dihedral": {f"{i}{j}": w for (i, j), w in sorted(data.dihedral.items())},
            "external": {f"{i}{j}": w for (i, j), w in sorted(data.external.items())},
            "sq_lengths": {
                f"{i}{j}": (int(l) if l == int(l) else float(l))
                for (i, j), l in sorted(data.sq_lengths.items())
            },
        }
        if args.json:
            _emit_json(payload)
        else:
            for i, w in enumerate(data.solid):
                print(f"solid angle at vertex {i}: {w:.12f}")
            for (i, j), w in sorted(data.dihedral.items()):
                print(f"dihedral at edge {i}{j}: {w:.12f}"
                      f"  (sq length {data.sq_lengths[(i, j)]})")
    else:
        faces = [
            {"face": fid, "dim": f.dim, "angle": face_angle(P, fid)}
            for fid, f in enumerate(P.faces)
        ]
        if args.json:
            _emit_json({"dim": P.dim, "faces": faces})
        else:
            for row in faces:
                print(f"face {row['face']} (dim {row['dim']}):"
                      f" angle {row['angle']:.12f}")
    return 0


_BRANCHES = {0: "(1+i)*sqrt(n)", 1: "sqrt(n)", 2: "0", 3: "i*sqrt(n)"}


def _cmd_gauss_table(args: argparse.Namespace) -> int:
    top = check_positive_int(args.max, "--max")
    if args.direct:  # the literal sums G(1, n) for n <= max have max(max+1)/2 terms
        check_budget("literal Gauss-sum terms", top * (top + 1) // 2, "use a smaller --max")
    gauss = quad_gauss_direct if args.direct else quad_gauss_closed
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "re", "im", "branch"])
    for n in range(1, top + 1):
        g = gauss(1, n)
        writer.writerow([n, repr(g.real), repr(g.imag), _BRANCHES[n % 4]])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polygauss",
        description="Polyhedral Gauss sums over lattice polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("sum", help="evaluate G_P(n)")
    p_sum.add_argument("--polytope", required=True, help="polytope JSON file")
    p_sum.add_argument("--n", type=int, required=True, help="dilation modulus")
    p_sum.add_argument(
        "--route",
        choices=[ROUTE_DIRECT, ROUTE_TETRA],
        default=ROUTE_DIRECT,
    )
    p_sum.add_argument("--json", action="store_true")
    p_sum.set_defaults(func=_cmd_sum)

    p_tile = sub.add_parser("check-tiling", help="multi-tiling check")
    p_tile.add_argument("--polytope", required=True)
    p_tile.add_argument("--samples", type=int, default=200)
    p_tile.add_argument("--seed", type=int, default=0)
    p_tile.add_argument("--json", action="store_true")
    p_tile.set_defaults(func=_cmd_check_tiling)

    p_cls = sub.add_parser("classify", help="volume-1/6 tetrahedron search")
    p_cls.add_argument("--bound", type=int, required=True)
    p_cls.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_cls.add_argument(
        "--route", choices=[ROUTE_DIRECT, ROUTE_TETRA], default=ROUTE_DIRECT
    )
    p_cls.add_argument("--workers", type=int, default=1)
    p_cls.add_argument("--json", action="store_true")
    p_cls.add_argument("--csv", metavar="FILE")
    p_cls.set_defaults(func=_cmd_classify)

    p_ang = sub.add_parser("angles", help="angle report")
    p_ang.add_argument("--polytope", required=True)
    p_ang.add_argument("--json", action="store_true")
    p_ang.set_defaults(func=_cmd_angles)

    p_tab = sub.add_parser("gauss-table", help="classical Gauss sums G(n)")
    p_tab.add_argument("--max", type=int, required=True)
    p_tab.add_argument(
        "--direct", action="store_true", help="sum the series instead of the closed form"
    )
    p_tab.set_defaults(func=_cmd_gauss_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message to stderr
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PolyGaussError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - invariant violations
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
