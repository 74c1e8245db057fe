"""CLI JSON output pinned byte for byte against the files in data/golden.

A golden file changes only together with a spec change recorded in
CHANGES.md.  To regenerate one, redirect the stdout of
`python -m polygauss.cli <argv of its case> --json` to it.
"""

import pathlib

import pytest

from polygauss.cli import main
from tests.conftest import DATA

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"

ROUTES = ("direct", "folded", "tetra")
SOLIDS = ("fund_tet", "second_tile_tet", "std_simplex", "unit_cube_3d")

CASES = (
    [
        (f"classify_b1_{route}", ["classify", "--bound", "1", "--route", route])
        for route in ("direct", "tetra")
    ]
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
)


def test_every_golden_file_has_a_case():
    assert {name for name, _ in CASES} == {p.stem for p in GOLDEN.glob("*.json")}


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_json_matches_golden(capsys, name, argv):
    assert main(argv + ["--json"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes()
