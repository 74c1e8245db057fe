"""CLI JSON output pinned byte for byte against the files in data/golden.

A golden file changes only together with a spec change recorded in
CHANGES.md.  To regenerate one, redirect the stdout of
`python -m polygauss.cli <argv of its case> --json` to it.  The CSV files
are what `classify --bound 2 --route ROUTE --csv FILE` writes on the direct
and the tetra route; their residual reprs pin the orbit representatives,
every angle bit and every count of the direct route's shared scan.
"""

import pathlib

import pytest

from polygauss.cli import main
from tests.conftest import DATA

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"
CSV_ROUTES = ("direct", "tetra")

ROUTES = ("direct", "tetra")
SOLIDS = ("fund_tet", "second_tile_tet", "std_simplex", "unit_cube_3d")

CASES = (
    [
        (
            f"classify_b{bound}_{route}",
            ["classify", "--bound", str(bound), "--route", route],
        )
        for bound in (1, 2)
        for route in ("direct", "tetra")
    ]
    + [("classify_b3_tetra", ["classify", "--bound", "3", "--route", "tetra"])]
    + [
        (f"angles_{path.stem}", ["angles", "--polytope", str(path)])
        for path in sorted(DATA.glob("*.json"))
    ]
    + [
        (
            f"sum_n7_{name}_{route}",
            ["sum", "--polytope", str(DATA / f"{name}.json"), "--n", "7", "--route", route],
        )
        for name in SOLIDS
        for route in ROUTES
        if (name, route) != ("unit_cube_3d", "tetra")  # not a tetrahedron
    ]
    + [  # dilates of more than 2^13 points, counted by the line path
        (
            f"sum_n{n}_{name}_{route}",
            ["sum", "--polytope", str(DATA / f"{name}.json"), "--n", str(n), "--route", route],
        )
        for name, n, routes in (
            ("fund_tet", 64, ("direct",)),
            ("fund_tet", 256, ("direct",)),
            ("second_tile_tet", 64, ("direct",)),
            ("unit_cube_3d", 32, ("direct",)),
            ("unit_cube_2d", 400, ("direct",)),
            ("triangle_2d", 400, ("direct",)),
            ("unit_cube_1d", 20000, ("direct",)),
        )
        for route in routes
    ]
    + [  # the tetra route at the benchmark's sizes, kappa over many passes
        (
            f"sum_n{n}_{name}_tetra",
            ["sum", "--polytope", str(DATA / f"{name}.json"), "--n", str(n), "--route", "tetra"],
        )
        for name in ("fund_tet", "second_tile_tet")
        for n in (64, 128)
    ]
    + [
        (
            f"tiling_{path.stem}",
            ["check-tiling", "--polytope", str(path), "--samples", "200", "--seed", "7"],
        )
        for path in sorted(DATA.glob("*.json"))
    ]
)


def test_every_golden_file_has_a_case():
    assert {name for name, _ in CASES} == {p.stem for p in GOLDEN.glob("*.json")}
    assert sorted(p.name for p in GOLDEN.glob("*.csv")) == [f"classify_b2_{r}.csv" for r in CSV_ROUTES]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_json_matches_golden(capsys, name, argv):
    assert main(argv + ["--json"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_classify_csv_matches_golden(capsys, tmp_path):
    out = tmp_path / "orbits.csv"
    for route in CSV_ROUTES:
        assert main(["classify", "--bound", "2", "--route", route, "--csv", str(out)]) == 0
        assert capsys.readouterr().err == "wrote 1320 rows to " + str(out) + "\n"
        assert out.read_bytes() == (GOLDEN / f"classify_b2_{route}.csv").read_bytes(), route
