"""wogd benchmark: one measured run of one workload, as one JSON line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it imports wogd from ``src/``. The
workloads and the reasons for them are listed in BENCHMARK.json; their
configs are in workloads.py.

``--trace 0`` prints the end-to-end metrics. ``setup_s`` is the median over
fresh processes of ``import wogd`` plus loading the workload's config. The
job timings come from one fresh worker process that repeats the workload's
job for ``--seconds``; ``peak_rss_mb`` is that process's peak resident set.

``--trace 1`` prints the per-layer metrics of tracer.py, taken in one worker
that alternates untraced and traced jobs. End-to-end numbers never come
from traced jobs.

Every job's output is checked (check.py). The next-to-last stdout line is
the environment record; the last is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Time allowed for a worker beyond its measured seconds: start-up plus the
# job that may still be running when the time is up.
WORKER_GRACE_S = 90.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def cap_blas_threads(nproc: int) -> dict[str, str]:
    """Cap each BLAS thread variable of this process's environment at nproc."""
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        n = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def git_revision() -> str:
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def child(args: list[str], timeout: float) -> str:
    """Run a Python script of the benchmark to completion; return its stdout."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{Path(args[0]).name} exited with code {proc.returncode}")
    return proc.stdout


def end_to_end(name: str, worker: dict) -> dict:
    setup = [
        float(child([str(HERE / "setup_probe.py"), name], timeout=60))
        for _ in range(SETUP_PROBES)
    ]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "steps_per_s": (worker["steps"][0] / statistics.median(worker["walls"]), "1/s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MiB"),
    }


def per_layer(worker: dict) -> dict:
    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    layers = worker["layers"]
    return {m["name"]: (layers[m["name"]], m["unit"]) for m in units}


def main(argv=None) -> int:
    # SIGTERM unwinds through subprocess.run, which then kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "wogd" / "__init__.py").is_file():
        print(f"error: no wogd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = {
        "python": platform.python_version(),
        "nproc": nproc,
        "blas_threads": cap_blas_threads(nproc),
        "git_revision": git_revision(),
        "loadavg_start": os.getloadavg(),
    }
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}.jsonl"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        worker = json.loads(child([
            str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace), "--tmp", tmp,
            "--spans", str(spans),
        ], timeout=args.seconds + WORKER_GRACE_S).splitlines()[-1])
    env.update(numpy=worker["numpy"], blas=worker["blas"])
    if not worker["walls"] or (args.trace and "layers" not in worker):
        sys.stderr.write("".join(worker["problems"]))
        print("error: no job of the workload completed", file=sys.stderr)
        return 1

    metrics = per_layer(worker) if args.trace else end_to_end(args.workload, worker)
    problems = list(worker["problems"])
    if len(set(worker["steps"])) > 1:
        problems.append(f"jobs ran different step counts: {sorted(set(worker['steps']))}")
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    print(json.dumps({"env": env, "job_walls_s": worker["walls"]}))
    print(json.dumps({
        "correct": worker["failed"] == 0 and not problems,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
