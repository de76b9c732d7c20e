"""Command-line front end.

Subcommands:
  run    --config FILE [--seeds a,b,...] [--out DIR] [--workers N]
  grid   --config FILE --lr-grid 0.001,0.002,... [--seeds a,b,...]
  verify [pytest args...]   run the property/acceptance test suites

Exit codes: 0 success; 2 configuration error; 3 data/I-O error; 4 numeric
failure (divergence, decomposition failure); 1 anything else. When some
seeds of `run` diverge, the seeds that finished are still written, and
manifest.json lists where each diverged seed stopped.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import numpy as np

from .gradients import NumericOverflowError
from .harness import (
    ConfigError,
    DivergedSeedsError,
    ExperimentConfig,
    GridSearchError,
    aggregate,
    config_from_mapping,
    emit_outputs,
    grid_search,
    parse_config_text,
    run_many,
)
from .tasks import CsvFormatError


def _load(args) -> tuple[dict, ExperimentConfig]:
    """The config file's raw mapping, with --seeds as its seeds key, and the
    config it validates to."""
    raw = parse_config_text(Path(args.config).read_text(encoding="utf-8"))
    if args.seeds is not None:
        raw["seeds"] = args.seeds
    return raw, config_from_mapping(raw)


def _cmd_run(args) -> int:
    raw, cfg = _load(args)
    out_dir = args.out or cfg.out_dir
    failure = None
    try:
        results = run_many(cfg, workers=args.workers)
    except DivergedSeedsError as exc:
        if not exc.results:
            raise
        failure, results = exc, exc.results  # keep the seeds that finished
    summary = aggregate(results)
    files = emit_outputs(
        summary, out_dir, config_mapping=raw, diverged=failure.diverged if failure else None
    )
    for row in summary.rows:
        print(
            f"{row.label}: runs={row.n_runs} mse_mean={row.mse_mean:.6g} "
            f"mean_runtime={row.runtime_mean_s:.3f}s"
        )
    print(f"wrote {', '.join(files)} to {out_dir}")
    if failure:
        print(f"error[numeric]: {failure}", file=sys.stderr)
        return 4
    return 0


def _cmd_grid(args) -> int:
    _, cfg = _load(args)
    try:
        grid = tuple(float(v) for v in args.lr_grid.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"bad grid {args.lr_grid!r}") from None
    best, rows = grid_search(cfg, grid, tuning_seeds=cfg.seeds if args.seeds is not None else None)
    for rate, mse, note in rows:
        status = f"mse={mse:.6g}" if mse is not None else f"excluded ({note})"
        print(f"rate={rate:g}: {status}")
    print(f"best={best:g}")
    return 0


def _cmd_verify(args) -> int:
    extra = list(args.pytest_args)
    if not extra:
        tests = Path("tests")
        if not tests.is_dir():
            print(
                "error[config]: no tests/ directory here; run from the project root",
                file=sys.stderr,
            )
            return 2
        extra = [str(tests), "-v"]
    cmd = [sys.executable, "-m", "pytest", *extra]
    return subprocess.run(cmd, check=False).returncode


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wogd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config across its seeds")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seeds", help="comma-separated override")
    p_run.add_argument("--out", default="", help="output directory override")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.set_defaults(func=_cmd_run)

    p_grid = sub.add_parser("grid", help="learning-rate grid search")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--lr-grid", required=True)
    p_grid.add_argument("--seeds")
    p_grid.set_defaults(func=_cmd_grid)

    p_verify = sub.add_parser("verify", help="run the test suites")
    p_verify.add_argument("pytest_args", nargs=argparse.REMAINDER,
                          help="extra arguments passed straight to pytest")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except (CsvFormatError, FileNotFoundError, OSError) as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return 3
    except (NumericOverflowError, np.linalg.LinAlgError, GridSearchError) as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - last resort
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
