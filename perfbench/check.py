"""Output check of the benchmark jobs.

Every record (one seed run, or one `wogd run` output directory) must satisfy
the invariants: every value finite, the configured step count run, and
normalized regret at most ``analysis.regret_bound``. Records whose key has a
reference recorded from the seed commit must also match it: counts exactly,
floats within ``RTOL``/``ATOL``. The CLI workload's default-seed output files are
compared cell by cell, except the wall-clock column of summary.csv.

The tolerance admits the ulp-level deviation of swapping the SVD kernel
(singular values agree to ~3e-14, which moves regret values by ~1e-13
relative) and catches any change of the trajectories themselves.

    python3 perfbench/check.py --record   # rewrite the references
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

import workloads

RTOL = 1e-9
ATOL = 1e-12
REF_DIR = Path(__file__).resolve().parent / "references"
# Workload seeds whose records are recorded as references.
REFERENCE_SEEDS = range(0, 11)
EXACT_FIELDS = ("steps", "projection_count", "ledger_len")
FLOAT_FIELDS = ("mse", "last_normalized_regret")
UNCHECKED_COLUMNS = {"summary.csv": {"mean_runtime_s"}}


def load_references(name: str) -> dict:
    path = REF_DIR / f"{name}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def invariants(cfg, rec: dict) -> list[str]:
    from wogd import analysis

    problems = []
    if not rec["finite"] or not math.isfinite(rec["mse"]):
        problems.append("non-finite output")
    if rec["steps"] != cfg.steps:
        problems.append(f"ran {rec['steps']} of {cfg.steps} steps")
    regret = rec["last_normalized_regret"]
    if regret is not None:
        bound = analysis.regret_bound(cfg.eta, cfg.window, rec["ledger_len"], cfg.n_h)
        if not regret <= bound:
            problems.append(f"normalized regret {regret!r} above bound {bound!r}")
    return problems


def compare(rec: dict, ref: dict) -> list[str]:
    problems = []
    for f in EXACT_FIELDS:
        if rec[f] != ref[f]:
            problems.append(f"{f}={rec[f]!r}, reference {ref[f]!r}")
    for f in FLOAT_FIELDS:
        a, b = rec[f], ref[f]
        if (a is None) != (b is None) or (a is not None and not close(a, b)):
            problems.append(f"{f}={a!r}, reference {b!r}")
    return problems


def check_record(cfg, rec: dict, refs: dict) -> list[str]:
    problems = invariants(cfg, rec)
    ref = refs.get(rec["key"])
    if ref is not None:
        problems += compare(rec, ref)
    return [f"run {rec['key']}: {p}" for p in problems]


def compare_tables(name: str, got: list[list[str]], ref: list[list[str]]) -> list[str]:
    if not ref or not got or got[0] != ref[0]:
        return [f"{name}: header differs from the reference"]
    if len(got) != len(ref):
        return [f"{name}: {len(got) - 1} rows, reference {len(ref) - 1}"]
    skip = {i for i, h in enumerate(ref[0]) if h in UNCHECKED_COLUMNS.get(name, ())}
    for r, (row, ref_row) in enumerate(zip(got[1:], ref[1:]), start=1):
        for c, (a, b) in enumerate(zip(row, ref_row)):
            if c in skip or a == b:
                continue
            try:
                ok = a != "" and b != "" and close(float(a), float(b))
            except ValueError:
                ok = False
            if not ok:
                return [f"{name} row {r} column {ref[0][c]!r}: {a!r}, reference {b!r}"]
    return []


def check_cli_files(out_dir: Path, ref_dir: Path) -> list[str]:
    problems = []
    for name in workloads.CLI_FILES:
        problems += compare_tables(
            name, workloads.read_table(out_dir / name), workloads.read_table(ref_dir / name)
        )
    return problems


def cli_reference_dir(name: str, seed: int) -> Path | None:
    path = REF_DIR / name / f"seed{seed}"
    return path if path.is_dir() else None


def record_references() -> None:
    """Run each workload once per reference seed and write its records."""
    REF_DIR.mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        refs = {}
        with tempfile.TemporaryDirectory(dir=REF_DIR.parent) as tmp:
            for seed in REFERENCE_SEEDS:
                job = workloads.Job(workload, seed, Path(tmp))
                output = job.run()
                for rec in job.collect(output):
                    problems = invariants(job.cfg, rec)
                    if problems:
                        raise SystemExit(f"{name} run {rec['key']}: {problems}")
                    refs[rec["key"]] = {k: rec[k] for k in EXACT_FIELDS + FLOAT_FIELDS}
                if workload.cli and seed == workloads.DEFAULT_SEED:
                    dest = REF_DIR / name / f"seed{seed}"
                    dest.mkdir(parents=True, exist_ok=True)
                    for f in workloads.CLI_FILES:
                        (dest / f).write_bytes((output / f).read_bytes())
                job.discard(output)
                print(f"{name} seed {seed}: {job.seeds}", flush=True)
        path = REF_DIR / f"{name}.json"
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite the reference files")
    args = parser.parse_args(argv)
    if not args.record:
        parser.print_help()
        return 2
    sys.path.insert(0, str(workloads.ROOT / "src"))
    record_references()
    return 0


if __name__ == "__main__":
    sys.exit(main())
