"""Smoke test of the benchmark itself at tiny sizes: the search at B = 1,
sums at n <= 8 and tiling checks with a few samples.

    python3 -m pytest perfbench -q
"""

import dataclasses
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_SUMS = (
    ("direct", "fund_tet", 4),
    ("direct", "fund_tet", 8),
    ("direct", "unit_cube_3d", 3),
    ("tetra", "fund_tet", 4),
    ("tetra", "fund_tet", 8),
    ("tetra", "second_tile_tet", 8),
    ("folded", "fund_tet", 4),
    ("folded", "fund_tet", 8),
)
TINY_SAMPLES = 5


def kappa_terms(n):
    return 4 * math.comb(n - 1, 2) + math.comb(n - 1, 3)


@pytest.fixture(scope="module")
def fixtures():
    return workloads.setup(ROOT)


def tiny_ops(fixtures):
    return (
        workloads.search_ops(1, workloads.SEARCH_B1)
        + workloads.sum_ops(TINY_SUMS, fixtures)
        + workloads.tiling_ops(fixtures, TINY_SAMPLES, 7, workloads.TILING_EXPECT)
    )


def test_tiny_workloads_pass_traced_and_untraced(fixtures):
    ops = tiny_ops(fixtures)
    plain, traced = bench.run_rounds(ops, seconds=0, trace=True)
    assert len(plain) == len(traced) == 1
    assert plain[0].failures == {} and traced[0].failures == {}
    assert plain[0].attempted == len(ops)
    assert traced[0].attempted == len(ops) - 1  # the pooled search runs untraced only

    layers = tracing.layer_metrics(traced[0].spans)
    assert layers["classify.candidates"] == 1160
    assert layers["classify.orbits"] == 21
    # one tetrahedron_angles per orbit and n on the tetra route, one per tetra sum
    assert layers["angles.tetrahedron_angles_calls"] == 21 * 4 + 3
    assert layers["polysum.kappa_terms"] == 21 * sum(map(kappa_terms, (1, 2, 3, 4))) + sum(
        kappa_terms(n) for route, _, n in TINY_SUMS if route == "tetra"
    )
    assert layers["weyl.samples_checked"] == TINY_SAMPLES * 7
    assert 0 < layers["geometry.scan_hit_ratio"] < 1
    for module, attr, *_ in tracing.PATCHES:
        assert not hasattr(getattr(module, attr), "__wrapped__"), f"{attr} left patched"


def test_failures_are_counted_not_passed(fixtures):
    wrong_search = dataclasses.replace(workloads.SEARCH_B1, orbits=22)
    ops = (
        workloads.search_ops(1, wrong_search)[:1]
        # claims that the corner simplex tiles
        + workloads.tiling_ops(fixtures, TINY_SAMPLES, 7, {"std_simplex": 8})
        + workloads.sum_ops((("direct", "fund_tet", 4),), fixtures)
        + [
            workloads.Op(
                metric="sum_tetra_s",
                label="raises",
                span="polysum.tetra_gauss_sum_formula",
                run=lambda: workloads._sum(fixtures["fund_tet"], "tetra", 0),
                check=lambda out, earlier: [],
            )
        ]
    )
    res = bench.run_pass(ops)
    assert res.attempted == 4
    assert set(res.failures) == {ops[0].label, ops[1].label, "raises"}
    assert "21 orbits, expected 22" in res.failures[ops[0].label]
    assert res.failures["raises"][0].startswith("raised MalformedInput")


def test_traced_output_must_match_untraced():
    calls = itertools.count()
    op = workloads.Op(
        metric="tiling_s",
        label="changes between calls",
        span="none",
        run=lambda: {"call": next(calls)},
        check=lambda out, earlier: [],
    )
    plain, traced = bench.run_rounds([op], seconds=0, trace=True)
    assert plain[0].failures == {}
    assert traced[0].failures == {op.label: ["traced output differs from the untraced one"]}


def run_benchmark(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiling-fixtures",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_contract_line(trace, kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = run_benchmark(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in spec[kind]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark(tmp_path, 0)
    assert done.returncode != 0
    assert done.stdout == ""
