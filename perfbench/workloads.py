"""The benchmark's workloads, each a closed loop through wogd's public API.

A job runs every run seed of a workload to its stop condition in a single
process (``workers=1``); each online step waits for the previous update. A
measured run repeats the same job until its time is up.

The workload seed picks the run seeds: seed ``s`` runs ``s*k+1 .. s*k+k``,
where ``k`` is the workload's seeds per job, so the default seed 0 runs the
first seeds of the acceptance tests and the shipped config.

wogd is imported inside functions only, so that the set-up probe can time
the first ``import wogd``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0

# Criterion 9's srnn-wogd config (tests/test_acceptance.py), as config text.
SRNN_WOGD_CFG = """\
schema_version = 1
task = synthetic
features = 3
steps = 600
model = srnn
n_h = 10
optimizer = wogd
eta = 0.03
window = 200
lambda = 0.95
alpha = 7.5
out_lr_scale = 8.0
out_radius = 2.5
"""

CLI_FILES = ("summary.csv", "curves.csv", "regret.csv", "smoothness.csv")


@dataclass(frozen=True)
class Workload:
    name: str
    seeds_per_job: int
    config_file: str = ""  # shipped config, relative to the repository root
    config_text: str = ""  # inline config, used when config_file is empty
    cli: bool = False  # run through `wogd run` instead of harness.run_many


WORKLOADS = {
    w.name: w
    for w in (
        Workload("srnn-wogd", 5, config_text=SRNN_WOGD_CFG),
        Workload("srnn-wogd-instrumented", 1, config_file="configs/synthetic_regret.cfg", cli=True),
    )
}


def run_seeds(workload: Workload, seed: int) -> tuple[int, ...]:
    k = workload.seeds_per_job
    return tuple(range(seed * k + 1, seed * k + k + 1))


def config_text(workload: Workload) -> str:
    if workload.config_file:
        return (ROOT / workload.config_file).read_text(encoding="utf-8")
    return workload.config_text


def load_config(workload: Workload):
    """The workload's ExperimentConfig, parsed and validated by wogd."""
    from wogd import harness

    return harness.config_from_mapping(harness.parse_config_text(config_text(workload)))


def record_of(result) -> dict:
    """The checked fields of one RunResult."""
    finite = bool(all(math.isfinite(v) for v in result.curve))
    ledger = result.ledger
    last_regret = None
    if ledger is not None and len(ledger):
        last_regret = ledger.normalized[-1]
        finite = finite and all(math.isfinite(v) for v in ledger.regret)
    return {
        "key": str(result.seed),
        "steps": result.steps,
        "mse": result.mse,
        "projection_count": result.projection_count,
        "ledger_len": None if ledger is None else len(ledger),
        "last_normalized_regret": last_regret,
        "finite": finite,
    }


def read_table(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _float(cell: str) -> float:
    return float(cell) if cell else math.nan


def cli_record(out_dir: Path, seeds: tuple[int, ...]) -> dict:
    """The checked fields of one `wogd run` output directory (one label)."""
    summary = dict(zip(*read_table(out_dir / "summary.csv")))
    curves = read_table(out_dir / "curves.csv")[1:]
    regret = read_table(out_dir / "regret.csv")[1:]
    smooth = read_table(out_dir / "smoothness.csv")[1:]
    cells = [_float(c) for row in curves + regret for c in row[1:]]
    cells += [_float(c) for row in smooth for c in row[1:] if c]
    return {
        "key": ",".join(map(str, seeds)),
        "steps": len(curves),
        "mse": float(summary["mse_mean"]),
        "projection_count": float(summary["projection_mean"]),
        "ledger_len": len(regret),
        "last_normalized_regret": float(regret[-1][2]) if regret else None,
        "finite": all(math.isfinite(v) for v in cells),
    }


class Job:
    """One workload job, prepared once per measured run.

    ``run()`` is the timed call into wogd; ``collect()`` turns its output
    into per-seed records outside the timed region.
    """

    def __init__(self, workload: Workload, seed: int, tmp: Path):
        from wogd import cli, harness

        self.workload = workload
        self.seed = seed
        self.seeds = run_seeds(workload, seed)
        self.cfg = load_config(workload)
        self._harness = harness
        self._cli = cli
        self._out = tmp / "out"

    def run(self):
        if not self.workload.cli:
            return self._harness.run_many(self.cfg, self.seeds, workers=1)
        argv = [
            "run", "--config", str(ROOT / self.workload.config_file),
            "--seeds", ",".join(map(str, self.seeds)), "--out", str(self._out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self._cli.main(argv)
        if code != 0:
            raise RuntimeError(f"wogd run exited with code {code}")
        return self._out

    def collect(self, output) -> list[dict]:
        if not self.workload.cli:
            return [record_of(r) for r in output]
        return [cli_record(output, self.seeds)]

    def discard(self, output) -> None:
        if self.workload.cli:
            shutil.rmtree(output, ignore_errors=True)
