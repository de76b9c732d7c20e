"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``
from the repository root."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_job(name: str, tmp_path: Path, steps: int) -> workloads.Job:
    """The workload's job cut to its first seed and ``steps`` steps."""
    workload = workloads.WORKLOADS[name]
    path = tmp_path / "small.cfg"
    path.write_text(re.sub(r"(?m)^steps = .*$", f"steps = {steps}", workloads.config_text(workload)))
    job = workloads.Job(dataclasses.replace(workload, config_file=str(path)), 0, tmp_path)
    job.seeds = job.seeds[:1]
    return job


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_default_seed_runs_the_named_seeds():
    seeds = {
        n: workloads.run_seeds(w, workloads.DEFAULT_SEED) for n, w in workloads.WORKLOADS.items()
    }
    assert seeds["srnn-wogd"] == (1, 2, 3, 4, 5)
    assert seeds["srnn-wogd-instrumented"] == (1,)
    assert workloads.run_seeds(workloads.WORKLOADS["srnn-wogd"], 3) == (16, 17, 18, 19, 20)


def test_corrupted_reference_counts_as_failed(tmp_path):
    job = small_job("srnn-wogd", tmp_path, steps=40)
    runner = worker.Runner(job)
    runner.refs = {}
    rec = job.collect(job.run())[0]
    runner.refs = {rec["key"]: dict(rec)}
    runner.timed_job()
    assert (runner.attempted, runner.failed) == (1, 0)

    runner.refs[rec["key"]]["mse"] *= 1.0 + 1e-13  # ulp-level: admitted
    runner.timed_job()
    assert (runner.attempted, runner.failed) == (2, 0)

    runner.refs[rec["key"]]["mse"] *= 1.0 + 1e-6
    runner.timed_job()
    assert (runner.attempted, runner.failed) == (3, 1)
    assert "mse" in runner.problems[-1]

    runner.refs[rec["key"]] = dict(rec, projection_count=rec["projection_count"] + 1)
    runner.timed_job()
    assert (runner.attempted, runner.failed) == (4, 2)


def test_raising_job_fails_all_its_seeds(tmp_path):
    from wogd.gradients import NumericOverflowError

    def diverge():
        raise NumericOverflowError(7)

    job = small_job("srnn-wogd", tmp_path, steps=10)
    job.seeds = (1, 2)
    job.run = diverge
    runner = worker.Runner(job)
    assert runner.timed_job() is None
    assert (runner.attempted, runner.failed) == (2, 2)


def test_cli_tables_compared_except_wall_clock():
    ref = [["label", "mse_mean", "mean_runtime_s"], ["a", "0.5", "1.0"]]
    assert check.compare_tables("summary.csv", [ref[0], ["a", "0.5", "9.0"]], ref) == []
    assert check.compare_tables("summary.csv", [ref[0], ["a", "0.5000001", "1.0"]], ref)
    assert check.compare_tables("curves.csv", [ref[0], ["a", "0.5", "9.0"]], ref)
    assert check.compare_tables("summary.csv", [ref[0]], ref)


def test_invariants_catch_bad_records(tmp_path):
    job = small_job("srnn-wogd", tmp_path, steps=40)
    rec = job.collect(job.run())[0]
    assert check.invariants(job.cfg, rec) == []
    assert check.invariants(job.cfg, dict(rec, steps=39))
    assert check.invariants(job.cfg, dict(rec, mse=float("nan")))
    assert check.invariants(job.cfg, dict(rec, last_normalized_regret=1e30, ledger_len=40))


@pytest.mark.parametrize("name", ["srnn-wogd-instrumented", "srnn-wogd"])
def test_traced_self_times_fit_in_wall_time(tmp_path, name):
    job = small_job(name, tmp_path, steps=60)
    originals = {n: getattr(o, a) for n, o, a, *_ in tr._targets()}
    t = tr.Tracer()
    with tr.instrument(t):
        start = time.perf_counter()
        job.discard(job.run())
        wall = time.perf_counter() - start
    assert {n: getattr(o, a) for n, o, a, *_ in tr._targets()} == originals
    selfs = tr.self_times(t.spans)
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) <= wall
    shares = tr.layer_metrics(t.spans, wall)
    assert 0 < sum(shares[f"share.{layer}"] for layer in tr.LAYERS) <= 1
    assert shares["models.step_calls"] == 60


def test_printed_metric_names_match_benchmark_json():
    end = run_bench("--workload", "srnn-wogd-instrumented", "--seconds", "0.1", "--trace", "0")
    layer = run_bench("--workload", "srnn-wogd-instrumented", "--seconds", "0.1", "--trace", "1")
    for proc, key in ((end, "end_to_end"), (layer, "per_layer")):
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        listed = {m["name"]: m["unit"] for m in BENCH[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == listed


def test_layer_metrics_cover_the_listed_names(tmp_path):
    job = small_job("srnn-wogd", tmp_path, steps=30)
    t = tr.Tracer()
    with tr.instrument(t):
        job.run()
    layers = tr.median_metrics([tr.layer_metrics(t.spans, 1.0)], tr.step_intervals_ms(t.spans))
    layers["trace.overhead_ratio"] = 0.0
    assert set(layers) == {m["name"] for m in BENCH["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = run_bench("--workload", "srnn-wogd", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
