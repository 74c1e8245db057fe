import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from polygauss import geometry
from polygauss.cli import main
from polygauss.gauss import quad_gauss_closed
from tests.conftest import CIRCLE_70, FUND_TET
from tests.oracles import vector_tetrahedron_angles

DATA = pathlib.Path(__file__).resolve().parent.parent / "data" / "polytopes"
FUND = str(DATA / "fund_tet.json")
SIMPLEX = str(DATA / "std_simplex.json")
TRIANGLE = str(DATA / "triangle_2d.json")
SECOND = str(DATA / "second_tile_tet.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sum_human(capsys):
    code, out, err = run(capsys, "sum", "--polytope", FUND, "--n", "3")
    assert code == 0
    assert "[direct]" in out
    assert "points: 20" in out
    assert "residual" in out


def test_sum_json_value(capsys):
    code, out, _ = run(capsys, "sum", "--polytope", FUND, "--n", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["re"] == pytest.approx(0.0, abs=1e-12)
    assert payload["im"] == pytest.approx(-math.sqrt(3) / 2, abs=1e-12)
    assert payload["point_count"] == 20
    assert abs(complex(payload["residual_re"], payload["residual_im"])) < 1e-12


def test_sum_routes_agree(capsys):
    values = {}
    for route in ("direct", "tetra"):
        code, out, _ = run(
            capsys, "sum", "--polytope", SECOND, "--n", "4", "--route", route, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        values[route] = complex(payload["re"], payload["im"])
        assert payload["route"] == route
    assert abs(values["direct"] - values["tetra"]) < 1e-10


def test_sum_refuses_the_folded_route(capsys):
    # the folded route, the direct route under another name, is gone
    code, out, err = run(capsys, "sum", "--polytope", FUND, "--n", "3", "--route", "folded")
    assert code == 2 and out == ""
    assert "invalid choice: 'folded'" in err


def test_sum_rejects_bad_n(capsys):
    code, _, err = run(capsys, "sum", "--polytope", FUND, "--n", "0")
    assert code == 2
    assert "error:" in err


def test_check_tiling_accepts(capsys):
    code, out, _ = run(
        capsys, "check-tiling", "--polytope", FUND, "--samples", "30"
    )
    assert code == 0
    assert "multi-tiles with multiplicity 8" in out


def test_check_tiling_rejects_with_witnesses(capsys):
    code, out, _ = run(
        capsys, "check-tiling", "--polytope", SIMPLEX, "--samples", "30"
    )
    assert code == 0
    assert "does not multi-tile" in out
    assert "witness" in out and "expected 8" in out


def test_check_tiling_json(capsys):
    code, out, _ = run(
        capsys,
        "check-tiling", "--polytope", SECOND, "--samples", "25", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["is_multitiling"] is True
    assert payload["multiplicity"] == 8
    assert payload["samples_checked"] == 25


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--bound", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["candidates_scanned"] == 1160
    assert payload["distinct_orbits"] == 21
    assert len(payload["passing_orbits"]) == 2
    assert payload["theorem_confirmed"] is False


def test_classify_csv(capsys, tmp_path):
    target = tmp_path / "orbits.csv"
    code, out, err = run(capsys, "classify", "--bound", "1", "--csv", str(target))
    assert code == 0
    assert "wrote 84 rows" in err
    with open(target, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 84
    assert set(rows[0]) == {"canonical_vertices", "n", "abs_residual", "pass"}
    passers = {r["canonical_vertices"] for r in rows if r["pass"] == "True"}
    assert len(passers) == 2
    for r in rows:
        float(r["abs_residual"])  # parses back


def test_classify_csv_unwritable_path_fails_before_the_search(capsys, tmp_path, monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("polygauss.cli.run_theorem2_experiment", search)
    target = tmp_path / "missing" / "orbits.csv"
    code, out, err = run(capsys, "classify", "--bound", "1", "--csv", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: {target}: No such file or directory\n"


def test_classify_human(capsys):
    code, out, _ = run(capsys, "classify", "--bound", "1")
    assert code == 0
    assert "scanned 1160 candidates" in out
    assert "passing orbits: 2" in out
    assert "all passers match the reference orbit: False" in out


def test_angles_tetra_json(capsys):
    code, out, _ = run(capsys, "angles", "--polytope", FUND, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dihedral"]["03"] == pytest.approx(1 / 6, abs=1e-12)
    assert payload["sq_lengths"] == {
        "01": 1, "02": 2, "03": 3, "12": 1, "13": 2, "23": 1
    }
    ref = vector_tetrahedron_angles(FUND_TET)
    assert payload["solid"] == pytest.approx(list(ref.solid), abs=1e-12)
    assert payload["external"] == pytest.approx(
        {f"{i}{j}": w for (i, j), w in ref.external.items()}, abs=1e-12
    )
    assert "gram_residuals" not in payload and "external_residuals" not in payload
    assert sum(payload["solid"]) == pytest.approx(1 / 6, abs=1e-9)


def test_angles_polygon_json(capsys):
    code, out, _ = run(capsys, "angles", "--polytope", TRIANGLE, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    vertex_angles = sorted(
        row["angle"] for row in payload["faces"] if row["dim"] == 0
    )
    assert vertex_angles == pytest.approx([0.125, 0.125, 0.25], abs=1e-12)


def test_gauss_table(capsys):
    code, out, _ = run(capsys, "gauss-table", "--max", "12")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12
    for row in rows:
        n = int(row["n"])
        want = quad_gauss_closed(1, n)
        assert float(row["re"]) == pytest.approx(want.real, abs=1e-12)
        assert float(row["im"]) == pytest.approx(want.imag, abs=1e-12)
    assert rows[1]["branch"] == "0"
    assert rows[2]["branch"] == "i*sqrt(n)"
    assert rows[3]["branch"] == "(1+i)*sqrt(n)"
    assert rows[4]["branch"] == "sqrt(n)"


def test_gauss_table_direct_matches(capsys):
    _, closed, _ = run(capsys, "gauss-table", "--max", "20")
    _, direct, _ = run(capsys, "gauss-table", "--max", "20", "--direct")
    for a, b in zip(csv.DictReader(io.StringIO(closed)), csv.DictReader(io.StringIO(direct))):
        assert float(a["re"]) == pytest.approx(float(b["re"]), abs=1e-9)
        assert float(a["im"]) == pytest.approx(float(b["im"]), abs=1e-9)


def test_missing_file(capsys):
    code, _, err = run(capsys, "sum", "--polytope", "/nonexistent.json", "--n", "1")
    assert code == 2
    assert err.startswith("error:")


def test_invalid_json_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "sum", "--polytope", str(bad), "--n", "1")
    assert code == 2
    assert "invalid JSON" in err


def test_malformed_polytope_names_field(capsys, tmp_path):
    bad = tmp_path / "bad_dim.json"
    bad.write_text(json.dumps({"dim": 7, "vertices": [[0] * 7]}), encoding="utf-8")
    code, _, err = run(capsys, "sum", "--polytope", str(bad), "--n", "1")
    assert code == 2
    assert "dim" in err

    bad2 = tmp_path / "bad_vertex.json"
    bad2.write_text(
        json.dumps({"dim": 2, "vertices": [[0, 0], [1], [0, 1]]}), encoding="utf-8"
    )
    code, _, err = run(capsys, "sum", "--polytope", str(bad2), "--n", "1")
    assert code == 2
    assert "vertices[1]" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "sum", "--polytope", FUND)[0] == 2  # missing --n
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_classify_refuses_fewer_than_one_worker(capsys, workers):
    code, out, err = run(capsys, "classify", "--bound", "1", "--workers", workers)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "workers must be >= 1" in err


def test_classify_refuses_nan_tolerance(capsys):
    # json.dumps would print NaN, which is not JSON
    code, out, err = run(capsys, "classify", "--bound", "1", "--tol", "nan", "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "tolerance" in err


def test_classify_refuses_negative_tolerance(capsys):
    # every residual would fail it and every orbit be rejected
    code, out, err = run(capsys, "classify", "--bound", "1", "--tol", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "tolerance" in err


def test_boolean_vertex_coordinate_is_refused(capsys, tmp_path):
    # JSON true is not the integer 1
    bad = tmp_path / "bool_vertex.json"
    bad.write_text(
        json.dumps({"dim": 3, "vertices": [[0, 0, 0], [True, 0, 0], [1, 1, 0], [1, 1, 1]]}),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "sum", "--polytope", str(bad), "--n", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "vertices[1][0]" in err


def test_json_output_deterministic(capsys):
    argv = ("classify", "--bound", "1", "--json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    # canonical encoding: re-serializing parsed output reproduces it
    payload = json.loads(first)
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == first


# Starts the command in argv[1:] and prints its exit code and ru_maxrss.
# The kernel carries the high-water RSS of the process that execs a child
# into the child's ru_maxrss, so the CLI is started from this small
# interpreter and not from the test process, which may be larger.
_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _run_measured(*argv):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr, peak
    RSS in MB) of that process alone."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "polygauss.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    code, peak_kib = map(int, done.stdout.split())
    return code, done.stderr, peak_kib / 1024


needs_linux_rusage = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only"
)


@needs_linux_rusage
@pytest.mark.parametrize(
    "n",
    [
        100_000,  # refused on its lines
        4_000,  # 16.0M lines, just under 2^24, refused on its 96M line-facet pairs
        1_600,  # 2.56M lines pass, refused on its 4.1e9 points after the line stage
    ],
)
def test_oversized_sum_fails_fast_without_allocating(n):
    code, err, peak_mb = _run_measured(
        "sum", "--polytope", str(DATA / "unit_cube_3d.json"), "--n", str(n)
    )
    assert code == 2
    assert err.startswith("error:") and "exceed the budget" in err
    assert peak_mb < 200


def test_oversized_check_tiling_fails_fast(capsys, tmp_path):
    # 48 * 201^3 orbit candidates times 6 facets; the point-by-point orbit
    # count ran for hours on this cube
    cube = tmp_path / "cube200.json"
    corners = [[i, j, k] for i in (0, 200) for j in (0, 200) for k in (0, 200)]
    cube.write_text(json.dumps({"dim": 3, "vertices": corners}))
    code, out, err = run(capsys, "check-tiling", "--polytope", str(cube))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "exceed the budget" in err


def test_more_facets_than_a_bitmask_holds_exit_2(capsys, tmp_path):
    # the p/q 70-gon for the orbit query, which needs no lattice polytope,
    # and its lattice dilate by 1000 for the sum
    paths = tmp_path / "pq.json", tmp_path / "lattice.json"
    for path, scale in zip(paths, ("/1000", "")):
        vertices = [[f"{c}{scale}" for c in p] for p in CIRCLE_70]
        path.write_text(json.dumps({"dim": 2, "vertices": vertices}))
    for argv in (
        ("check-tiling", "--polytope", str(paths[0])),
        ("sum", "--polytope", str(paths[1]), "--n", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "bitmask" in err


@needs_linux_rusage
def test_oversized_classify_bound_fails_within_memory():
    # B = 7 is the smallest bound whose candidates (more than 2^24) exceed
    # the budget; B = 6 has 7,842,440.  Enumeration stops at the first
    # vector whose triples cross the budget, which takes about 4.4 s and
    # 142 MB on a 2-CPU Xeon VM.  Holding every candidate and its key would
    # need more than 300 MB.
    code, err, peak_mb = _run_measured("classify", "--bound", "7")
    assert code == 2
    assert err.startswith("error:") and "candidate tetrahedra exceed the budget" in err
    assert err.rstrip().endswith("use a smaller bound")
    assert peak_mb < 200


@needs_linux_rusage
def test_large_direct_sum_memory():
    # 2,862,209 lattice points on 33,153 lines, counted per line from its two
    # ends; the bounding-box scan peaked near 1.5 GB on it, a float weight
    # per point at 162 MB and all the points at once at 121 MB
    code, _, peak_mb = _run_measured(
        "sum", "--polytope", FUND, "--n", "256", "--route", "direct", "--json"
    )
    assert code == 0
    assert peak_mb < 60


@needs_linux_rusage
def test_large_tetra_sum_memory():
    # 2,860,675 kappa terms counted in passes over a triangle of 32,385
    # parts; the whole composition table peaked at 227 MB, runs of about
    # 2^16 terms at 39 MB
    code, _, peak_mb = _run_measured(
        "sum", "--polytope", FUND, "--n", "256", "--route", "tetra", "--json"
    )
    assert code == 0
    assert peak_mb < 60


@pytest.mark.parametrize("name", ["fund_tet", "second_tile_tet"])
def test_tetra_sum_at_the_kappa_budget_edge(capsys, name):
    # n = 463 has 16,754,584 kappa terms, the most the 2^24 budget allows;
    # n = 464 has 16,862,923 and is refused before anything is allocated
    argv = ("sum", "--polytope", str(DATA / f"{name}.json"), "--route", "tetra", "--json", "--n")
    code, out, _ = run(capsys, *argv, "463")
    report = json.loads(out)
    assert code == 0 and report["point_count"] == math.comb(466, 3)
    assert abs(complex(report["residual_re"], report["residual_im"])) < 1e-8
    code, out, err = run(capsys, *argv, "464")
    assert code == 2 and out == ""
    assert "16862923 kappa terms exceed the budget" in err


@needs_linux_rusage
@pytest.mark.parametrize("name", ["fund_tet", "second_tile_tet"])
def test_tetra_sum_at_the_kappa_budget_edge_memory(name):
    # kappa holds a triangle of 106,491 parts and their residues, not its terms
    code, _, peak_mb = _run_measured(
        "sum", "--polytope", str(DATA / f"{name}.json"), "--n", "463", "--route", "tetra", "--json"
    )
    assert code == 0
    assert peak_mb < 60


def test_json_output_refuses_non_finite_floats():
    from polygauss.cli import _emit_json

    with pytest.raises(ValueError):
        _emit_json({"tolerance": float("nan")})


def test_lattice_polytope_far_from_the_origin(capsys, tmp_path):
    # coordinates near 2^70 do not fit the int64 scans; the tetra route and
    # the angles work on exact ints and still answer
    s = 2**70
    far = tmp_path / "far_simplex.json"
    corners = [[s, s, s], [s + 1, s, s], [s, s + 1, s], [s, s, s + 1]]
    far.write_text(json.dumps({"dim": 3, "vertices": corners}))
    path = str(far)
    for argv in (
        ["sum", "--polytope", path, "--n", "3"],
        ["check-tiling", "--polytope", path],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "exceed int64" in err, argv
    tetra = ("sum", "--n", "3", "--route", "tetra", "--json", "--polytope")
    code, out, _ = run(capsys, *tetra, path)
    assert code == 0
    assert out == run(capsys, *tetra, SIMPLEX)[1]
    code, out, _ = run(capsys, "angles", "--polytope", path, "--json")
    assert code == 0 and json.loads(out)["solid"]


def test_gauss_table_direct_is_under_the_budget(capsys, monkeypatch):
    # --max 5792 has 16,776,528 literal terms, 5793 has 16,782,321 > 2^24
    code, out, err = run(capsys, "gauss-table", "--direct", "--max", "5793")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "literal Gauss-sum terms exceed the budget" in err
    monkeypatch.setattr(geometry, "POINT_BUDGET", 10)
    assert run(capsys, "gauss-table", "--direct", "--max", "4")[0] == 0
    assert run(capsys, "gauss-table", "--direct", "--max", "5")[0] == 2
    # the closed form takes one term per n and has no budget
    code, out, _ = run(capsys, "gauss-table", "--max", "6000")
    assert code == 0
    assert len(out.splitlines()) == 6001
