"""Paired benchmark runs: a parent revision against the checkout.

    python3 tools/bench_pair.py --parent REV --out BENCH_<n>.json

Run it from anywhere inside the repository. Both sides are exported the same
way into sibling temporary directories: the parent with ``git archive REV``,
the checkout as the tree ``git write-tree`` makes of it (tracked changes and
untracked files not ignored by .gitignore included, through a temporary
index). ``perfbench/run.py`` then runs with its own defaults on every
workload of BENCHMARK.json, alternately in the two trees, one run per side
in each of 10 pairs. The side that goes first alternates from pair to pair,
so a drift in the host's load falls on both sides alike.

The output names both trees (``git archive <change_tree>`` gives back the
measured checkout; ``change_committed`` says whether it is HEAD's tree) and
holds, per workload, every run (its end-to-end metrics, ``correct``/``failed``,
the benchmark's environment record, and the load average and CPU count seen
just before it), and per end-to-end metric of BENCHMARK.json: the median and
quartiles of each side, the change/parent ratio of the medians, in how many
pairs the change was better, and a verdict against the metric's bound (see
`verdict`).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def git(*args: str, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True, env=env
    ).stdout.strip()


def checkout_tree(scratch: Path) -> str:
    """The id of the tree the working directory holds, untracked files not
    ignored included; a copy of the index takes it, so the index is untouched."""
    index = scratch / "index"
    index.write_bytes((ROOT / git("rev-parse", "--git-path", "index")).read_bytes())
    env = {**os.environ, "GIT_INDEX_FILE": str(index)}
    git("add", "--all", env=env)
    return git("write-tree", env=env)


def export(rev: str, dest: Path) -> None:
    """Write the tree of `rev` into dest, as `git archive rev | tar -x` does."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def bench_run(tree: Path, workload: str) -> dict:
    """One perfbench run in `tree`: its result line, environment record and
    the host's state just before it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    host = {"loadavg": os.getloadavg(), "nproc": len(os.sched_getaffinity(0))}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload],
        cwd=tree, capture_output=True, text=True, env=env,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench/run.py in {tree} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return {
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "host": host,
        "env": json.loads(lines[-2])["env"],
    }


def verdict(entry: dict, values: dict[str, list[float]], bound: float) -> str:
    """The benchmark rules on one metric's summary entry, with the bound as a
    fraction of the parent's median:

    - regression: the change's median is worse by more than the bound;
    - unresolved: the parent's quartile spread exceeds the bound and not
      every change run beats every parent run;
    - gain: the change won at least 9 in 10 pairs and its median is better
      by more than the parent's quartile spread;
    - no regression: otherwise.
    """
    higher = entry["better"] == "higher"
    parent, change = entry["parent"], entry["change"]
    better_by = (change["median"] - parent["median"]) * (1 if higher else -1)
    spread = parent["q3"] - parent["q1"]
    if -better_by > bound * parent["median"]:
        return "regression"
    if higher:
        all_beat = min(values["change"]) > max(values["parent"])
    else:
        all_beat = max(values["change"]) < min(values["parent"])
    if spread > bound * parent["median"] and not all_beat:
        return "unresolved"
    if entry["pairs_won"] >= 0.9 * entry["pairs"] and better_by > spread:
        return "gain"
    return "no regression"


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the change/parent ratio
    of the medians, the pairs the change won and the verdict. runs maps each
    side to its runs in pair order; metrics are BENCHMARK.json's end_to_end
    entries."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        entry = {}
        for side, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            entry[side] = {"median": med, "q1": q1, "q3": q3}
        entry["ratio"] = entry["change"]["median"] / entry["parent"]["median"]
        entry["pairs_won"] = sum(
            (c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"])
        )
        entry["pairs"] = len(values["parent"])
        entry["better"] = metric["better"]
        entry["verdict"] = verdict(entry, values, metric["bound"])
        out[name] = entry
    return out


def main(argv=None) -> int:
    # SIGTERM unwinds through subprocess.run, which kills the running
    # benchmark, and through the temporary directory, which is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--out", required=True, help="file to write, e.g. BENCH_<n>.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        tmp = Path(tmp)
        revs = {"parent": git("rev-parse", args.parent), "change": checkout_tree(tmp)}
        report = {
            "parent_revision": revs["parent"],
            "change_revision": git("rev-parse", "HEAD"),
            "change_tree": revs["change"],
            "change_committed": revs["change"] == git("rev-parse", "HEAD^{tree}"),
            "pairs": PAIRS,
            "workloads": {},
        }
        trees = {side: tmp / side for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
        for workload in (w["name"] for w in bench["workloads"]):
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for pair in range(PAIRS):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    run = bench_run(trees[side], workload)
                    runs[side].append(run)
                    print(f"{workload} pair {pair} {side}: {run['metrics']}", file=sys.stderr)
            report["workloads"][workload] = {
                "summary": summarize(runs, bench["end_to_end"]),
                "runs": runs,
            }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
