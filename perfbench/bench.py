"""Runs one workload of the benchmark and prints its result.

A run measures set-up in fresh processes, then repeats rounds until
--seconds have passed.  A round is one untraced pass over the workload's
operations; with --trace 1 it is followed by a traced pass over
the same operations, whose outputs must equal the untraced ones.  End-to-end
times come from untraced passes only.  Every operation is checked; one that
raises or misses its check counts as attempted and failed.

The bounded end-to-end times are CPU seconds (user + system, of this
process and of the workers and probes it waited for).  On a virtual machine
whose CPUs the host deschedules, wall time also counts the stolen time,
which drifts with the neighbours' load; CPU time does not.  Wall times are
measured and reported too.

Every pass starts with polygauss's phase-table cache cleared, and every
operation parses its polytope afresh, so each pass does the same cold work.
The traced pass warms nothing on purpose.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from polygauss import gauss

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_PY = HERE / "run.py"
OUT = HERE / "out"

SETUP_PROBES = 9

NAMED_TOTALS = (
    "search_direct_s",
    "search_tetra_s",
    "search_direct_2w_s",
    "sum_direct_s",
    "sum_folded_s",
    "sum_tetra_s",
    "tiling_s",
)


@dataclass
class PassResult:
    times: dict[str, float] = field(default_factory=dict)
    cpu: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, dict] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)
    attempted: int = 0
    phase_table: dict = field(default_factory=dict)
    spans: list[tracing.Span] = field(default_factory=list)


def run_pass(ops: list[workloads.Op], tracer: tracing.Tracer | None = None) -> PassResult:
    """One pass over the operations, traced when a tracer is given (then
    only the operations marked traced run)."""
    res = PassResult()
    gauss.phase_table.cache_clear()
    res.phase_table["before"] = gauss.phase_table.cache_info()._asdict()
    for op in ops:
        if tracer is not None and not op.traced:
            continue
        res.attempted += 1
        scope = tracer.span(op.span, op=op.label) if tracer else nullcontext({})
        # Start every operation from the same collector state, so that no
        # operation pays for the garbage of the one before it.
        gc.collect()
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with scope as attrs:
                out = op.run()
        except Exception as exc:  # a failing operation is counted, and the run goes on
            res.failures[op.label] = [f"raised {type(exc).__name__}: {exc}"]
            continue
        finally:
            res.times[op.label] = time.perf_counter() - t0
            res.cpu[op.label] = cpu_seconds() - c0
        attrs.update({k: v for k, v in out.items() if type(v) is int})
        problems = op.check(out, res.outputs)
        res.outputs[op.label] = out
        if problems:
            res.failures[op.label] = problems
    res.phase_table["after"] = gauss.phase_table.cache_info()._asdict()
    return res


def run_rounds(ops: list[workloads.Op], seconds: float, trace: bool):
    """Rounds until `seconds` have passed, at least one.  Returns the
    untraced passes and the traced passes."""
    tracer = tracing.Tracer() if trace else None
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(ops))
        if tracer is not None:
            first = len(tracer.spans)
            with tracing.instrument(tracer):
                t = run_pass(ops, tracer)
            t.spans = tracer.spans[first:]
            for label, out in t.outputs.items():
                if out != plain[-1].outputs.get(label):
                    t.failures.setdefault(label, []).append(
                        "traced output differs from the untraced one"
                    )
            traced.append(t)
        if time.perf_counter() - start >= seconds:
            return plain, traced


def named_totals(passes: list[PassResult], ops: list[workloads.Op]) -> dict[str, float]:
    """Median over passes of each named end-to-end total the ops feed."""
    out = {}
    for metric in NAMED_TOTALS:
        labels = [op.label for op in ops if op.metric == metric]
        if labels:
            out[metric] = statistics.median(
                sum(p.times.get(label, 0.0) for label in labels) for p in passes
            )
    return out


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def cpu_seconds() -> float:
    """CPU time of this process plus that of every child it has waited for,
    such as the search's pool workers."""
    return time.process_time() + _children_cpu()


def measure_setup(probes: int) -> list[float]:
    """CPU seconds of a fresh interpreter that imports polygauss, parses the
    fixtures, builds the group and exits, once per probe."""
    times = []
    for _ in range(probes):
        before = _children_cpu()
        subprocess.run([sys.executable, str(RUN_PY), "--setup-probe"], check=True)
        times.append(_children_cpu() - before)
    return times


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024


def _git_sha(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a
    repository (the benchmark may run in an exported tree)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256(root: Path) -> str:
    """Hash of the library's sources, which identifies the code measured
    also where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "polygauss").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(ROOT),
        "src_sha256": _src_sha256(ROOT),
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "pool_workers": workloads.POOL_WORKERS,
        "pool_oversubscribed": workloads.POOL_WORKERS > nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def _failures(passes: list[PassResult]) -> list[str]:
    return [
        f"pass {i}: {label}: {'; '.join(problems)}"
        for i, p in enumerate(passes)
        for label, problems in p.failures.items()
    ]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    setup_times = measure_setup(SETUP_PROBES)
    fixtures = workloads.setup(ROOT)
    ops = workloads.WORKLOADS[name](fixtures, seed)
    plain, traced = run_rounds(ops, seconds, trace)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = _failures(plain) + _failures(traced)
    totals = named_totals(plain, ops)
    if trace:
        per_pass = [tracing.layer_metrics(p.spans) for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        ph = [p.phase_table["after"] for p in traced]
        metrics["gauss.phase_table_hits"] = statistics.median(x["hits"] for x in ph)
        metrics["gauss.phase_table_misses"] = statistics.median(x["misses"] for x in ph)
        direct, pooled = totals.get("search_direct_s"), totals.get("search_direct_2w_s")
        metrics["classify.parallel_efficiency"] = (
            direct / (workloads.POOL_WORKERS * pooled) if pooled else 0.0
        )
        traced_labels = [op.label for op in ops if op.traced]
        untraced_s = statistics.median(
            sum(p.times[label] for label in traced_labels if label in p.times) for p in plain
        )
        metrics["trace.overhead_ratio"] = (
            statistics.median(sum(p.times.values()) for p in traced) / untraced_s
        )
        for metric in NAMED_TOTALS:
            metrics[metric] = totals.get(metric, 0.0)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "workload_cpu_s": statistics.median(sum(p.cpu.values()) for p in plain),
            "peak_rss_mb": peak_rss_mb(),
        }
    return {
        "provenance": provenance(name, seed),
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_probes_s": setup_times,
        "pass_s": [sum(p.times.values()) for p in plain],
        "pass_cpu_s": [sum(p.cpu.values()) for p in plain],
        "traced_pass_s": [sum(p.times.values()) for p in traced],
        "named_totals": totals,
        "op_times_s": {
            op.label: statistics.median(p.times[op.label] for p in plain if op.label in p.times)
            for op in ops
        },
        "phase_table": [p.phase_table for p in passes],
        "failures": failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "spans": [s for p in traced for s in p.spans],
    }


def load_spec() -> dict:
    """BENCHMARK.json, which names every reported metric and its unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def write_record(record: dict) -> None:
    """The full record of the run under perfbench/out/, with its spans, one
    JSON object a line, in a file of their own."""
    OUT.mkdir(exist_ok=True)
    p = record["provenance"]
    stem = OUT / f"{p['workload']}-seed{p['seed']}-trace{record['trace']}"
    spans = record.pop("spans")
    if spans:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s.to_dict()) + "\n")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")


def print_workload(record: dict, spec: dict) -> dict:
    """Print every metric by name with its unit, and return the result
    object of the contract line: the end-to-end metrics of BENCHMARK.json
    for an untraced run, its per-layer metrics for a traced one."""
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(workload_wall_s="s", failed_ratio="ratio")
    lines = dict(record["metrics"])
    if not record["trace"]:
        lines["workload_wall_s"] = statistics.median(record["pass_s"])
        lines.update(record["named_totals"])
    lines["failed_ratio"] = record["failed"] / record["attempted"]
    name = record["provenance"]["workload"]
    for metric, value in lines.items():
        print(f"{name:16s} {metric:40s} {value:14.6g} {units[metric]}")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Every workload, each in its own process so that each gets its own
    peak RSS; their printed metrics are passed through."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True,
            text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="polygauss benchmark")
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        workloads.setup(ROOT)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        write_record(record)
        result = print_workload(record, load_spec())
    print(json.dumps(result, sort_keys=True))
    return 0
