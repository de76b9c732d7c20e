"""Record the bitwise digests of reference runs into tests/data/digests.json.

    python3 tools/record_digests.py

Run it from anywhere inside the repository. Every case below is one config
trained by ``run_batch`` on seeds 1-3 for at most 200 steps; each (case,
seed) gets a sha256 over every ``RunResult`` field except ``runtime_s``, or
over ``(timestep, what)`` for a seed that diverged. The file also records
the environment the bits depend on (numpy, BLAS/LAPACK, machine, Python):
results are byte-identical per platform, not across platforms.

tests/test_digests.py recomputes every digest and compares. A change that
moves any recorded result re-records this file and lists each changed case
and its largest relative deviation in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wogd.analysis import RegretLedger  # noqa: E402
from wogd.harness import DivergedSeedsError, ExperimentConfig, RunResult, run_batch  # noqa: E402

DIGESTS = ROOT / "tests" / "data" / "digests.json"
FIXTURE = str(ROOT / "tests" / "data" / "fixture_regression.csv")
SEEDS = (1, 2, 3)


def _synthetic(**over) -> ExperimentConfig:
    base = dict(task="synthetic", features=3, steps=200, model="srnn", n_h=6,
                optimizer="wogd", eta=0.05, window=20)
    return ExperimentConfig(**{**base, **over})


def _binary(**over) -> ExperimentConfig:
    base = dict(task="binary_add", model="srnn", n_h=8, optimizer="wogd", eta=0.5,
                window=10, horizon=12, cutoff=200)
    return ExperimentConfig(**{**base, **over})


CASES = {
    "srnn-replay-instrumented": _synthetic(record_regret=True, record_smoothness=True),
    "srnn-every-3-bounds": _synthetic(
        window=10, record_regret=True, regret_every=3,
        check_gradient_bounds=True, alpha=0.0, out_radius=1.0, out_lr_scale=1.0,
    ),
    "cwrnn-wogd": _synthetic(model="cwrnn", periods=(1, 2, 3), features=2,
                             record_regret=True, record_smoothness=True),
    "cwrnn-sgd": _synthetic(model="cwrnn", periods=(1, 2, 3), optimizer="sgd",
                            learning_rate=0.05, window=8),
    "lstm-adam": _synthetic(model="lstm", optimizer="adam", learning_rate=0.01),
    # seeds 1 and 3 diverge on a non-finite gradient
    "lstm-sgd-lr50": _synthetic(model="lstm", n_h=10, optimizer="sgd", learning_rate=50.0),
    # seeds 1 and 3 leave at the horizon, seed 2 runs to the cutoff
    "binary-add": _binary(),
    "csv-rmsprop": ExperimentConfig(task="csv", dataset=FIXTURE, model="srnn", n_h=4,
                                    optimizer="rmsprop", learning_rate=0.01, window=8),
    "lstm-rmsprop": _synthetic(model="lstm", optimizer="rmsprop", learning_rate=0.01,
                               window=10),
    "srnn-sgd": _synthetic(optimizer="sgd", learning_rate=0.05, window=10),
    # seeds 1 and 2 leave at the horizon, seed 3 runs to the cutoff
    "lstm-sgd-binary-add": _binary(model="lstm", optimizer="sgd", learning_rate=0.5, horizon=8),
}


def fingerprint() -> dict[str, str]:
    """The environment bitwise results depend on."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "numpy": np.__version__,
        "blas": f"{deps['blas'].get('name')} {deps['blas'].get('version')}",
        "lapack": f"{deps['lapack'].get('name')} {deps['lapack'].get('version')}",
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def _feed(h, value) -> None:
    """Canonical bytes of a result field: arrays by dtype, shape and bytes,
    floats by repr, a ledger list by list, a smoothness sample as
    (beta_theta, beta_mu)."""
    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}\n".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, RegretLedger):
        for name in RegretLedger.NUMERIC:
            h.update(f"ledger {name}\n".encode())
            _feed(h, getattr(value, name))
        h.update(b"ledger smoothness\n")
        _feed(h, [None if e is None else (e.beta_theta, e.beta_mu) for e in value.smoothness])
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__} {len(value)}\n".encode())
        for v in value:
            _feed(h, v)
    elif isinstance(value, (float, np.floating)):
        h.update(f"float {float(value)!r}\n".encode())
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        h.update(f"int {int(value)}\n".encode())
    elif value is None or isinstance(value, (str, bool)):
        h.update(f"{type(value).__name__} {value!r}\n".encode())
    else:
        raise TypeError(f"no canonical form for {type(value).__name__}")


def result_digest(result: RunResult) -> str:
    h = hashlib.sha256()
    for f in dataclasses.fields(RunResult):
        if f.name != "runtime_s":
            h.update(f"field {f.name}\n".encode())
            _feed(h, getattr(result, f.name))
    return h.hexdigest()


def divergence_digest(timestep: int, what: str) -> str:
    h = hashlib.sha256()
    _feed(h, ("diverged", timestep, what))
    return h.hexdigest()


def case_digests(cfg: ExperimentConfig) -> dict[str, str]:
    """Seed -> digest of one case, every seed trained in one batch."""
    try:
        results, diverged = run_batch(cfg, SEEDS), {}
    except DivergedSeedsError as exc:
        results, diverged = exc.results, exc.diverged
    out = {str(r.seed): result_digest(r) for r in results}
    out.update({str(s): divergence_digest(e.timestep, e.what) for s, e in diverged.items()})
    return {str(s): out[str(s)] for s in SEEDS}


def record() -> dict:
    return {
        "environment": fingerprint(),
        "cases": {name: case_digests(cfg) for name, cfg in CASES.items()},
    }


def main() -> None:
    DIGESTS.write_text(json.dumps(record(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
