"""Measured process of one benchmark run: repeats a workload's job for the
given time, checks every job's output, and prints one JSON line.

Untraced (``--trace 0``): job wall times and the process's peak RSS.
Traced (``--trace 1``): untraced and traced jobs alternate, so the tracing
overhead is measured on the same process; the per-layer metrics are the
medians over the traced jobs, and the last traced job's spans are written
to ``--spans``.

Started by run.py with ``src`` on PYTHONPATH; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import check
import tracer as tr
import workloads


def blas_version() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


class Runner:
    def __init__(self, job: workloads.Job):
        self.job = job
        self.refs = check.load_references(job.workload.name)
        self.ref_dir = None
        if job.workload.cli:
            self.ref_dir = check.cli_reference_dir(job.workload.name, job.seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.steps: list[int] = []

    def timed_job(self) -> float | None:
        """Run the job once and check its output; return its wall time, or
        None when it raised."""
        n = len(self.job.seeds)
        self.attempted += n
        start = time.perf_counter()
        try:
            output = self.job.run()
        except Exception:  # a raising job fails all of its seed runs
            self.failed += n
            self.problems.append(traceback.format_exc(limit=3))
            return None
        wall = time.perf_counter() - start
        records = self.job.collect(output)
        # A CLI job writes one record for all of its seeds.
        per_record = n if self.job.workload.cli else 1
        if len(records) * per_record != n:
            self.failed += n
            self.problems.append(f"expected {n} runs, got {len(records)} records")
        for rec in records:
            problems = check.check_record(self.job.cfg, rec, self.refs)
            if self.ref_dir is not None:
                problems += check.check_cli_files(output, self.ref_dir)
            if problems:
                self.failed += per_record
                self.problems += problems
        self.steps.append(sum(r["steps"] for r in records))
        self.job.discard(output)
        return wall


def measure(runner: Runner, seconds: float, traced: bool, out_spans: Path) -> dict:
    deadline = time.perf_counter() + seconds
    walls: list[float] = []
    traced_walls: list[float] = []
    per_job: list[dict] = []
    intervals: list[float] = []
    cycles: list[float] = []
    t = tr.Tracer()
    last_spans: list = []
    while True:
        started = time.perf_counter()
        wall = runner.timed_job()
        if wall is not None:
            walls.append(wall)
        if traced:
            t.clear()
            with tr.instrument(t):
                wall = runner.timed_job()
            if wall is not None:
                traced_walls.append(wall)
                per_job.append(tr.layer_metrics(t.spans, wall))
                intervals += tr.step_intervals_ms(t.spans)
                last_spans = t.spans
        cycles.append(time.perf_counter() - started)
        # Stop when another cycle would likely overrun the measured time.
        if time.perf_counter() + statistics.median(cycles) > deadline:
            break
    result = {"walls": walls, "steps": runner.steps}
    if traced and walls and traced_walls:
        layers = tr.median_metrics(per_job, intervals)
        layers["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
        result["layers"] = layers
        with open(out_spans, "w", encoding="utf-8") as fh:
            for s in last_spans:
                fh.write(json.dumps(asdict(s)) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    import numpy as np

    job = workloads.Job(workloads.WORKLOADS[args.workload], args.seed, Path(args.tmp))
    runner = Runner(job)
    result = measure(runner, args.seconds, bool(args.trace), Path(args.spans))
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=np.__version__,
        blas=blas_version(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
