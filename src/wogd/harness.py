"""Experiment harness: config parsing, the online training loops, grid search,
multi-seed aggregation, and CSV emission.

There is one online loop: run_batch trains the seeds of any config in
lockstep, every model and optimizer, regret, smoothness and gradient-bound
instrumentation included. Each step is models.step_model and models.readout
over the (B, ...) parameter stacks, then one gradient call over the tape:
gradients.tbptt_gradient for WOGD, gradients.instant_gradient for the
baselines. run_single is its one-seed batch.

Config files are flat ``key = value`` text ('#' starts a comment), versioned
with a ``schema_version`` key. Recognized keys:

  schema_version   must be 1
  task             csv | binary_add | synthetic; the loss follows from the task:
                   cross_entropy for binary_add, squared for the others
  dataset          csv task: path to a numeric CSV (streamed in file order)
  target_column    csv task: target column index, default -1 (last)
  steps            csv/synthetic: number of steps (csv: 0 = whole file)
  features         synthetic task: raw feature count (bias gets appended)
  n_sequences      binary_add task: summand sequences, 2 or 3
  horizon          binary_add: error-free stretch defining success (1000)
  cutoff           binary_add: steps run at most (50000); a run is sustainable
                   when its horizon-long streak completes within them
  model            srnn | lstm | cwrnn
  n_h              hidden units
  periods          cwrnn clock periods, e.g. 1,2,4,8,16
  optimizer        wogd | sgd | rmsprop | adam
  eta              wogd hidden-layer learning rate
  window           wogd window size (and default tape depth for baselines)
  lambda           wogd spectral radius, default 0.95
  alpha            wogd lazy-projection trigger on the Frobenius norm, default
                   7.5; the spectral bound lambda holds only when alpha <= lambda
  out_lr_scale     wogd output schedule c in c/sqrt(t), default 8.0
  out_radius       wogd output-weight l2 bound, default 2.5
  gradient_mode    replay | cached, default replay
  learning_rate    baseline learning rate
  tbptt_depth      baseline backprop depth, default = window (or 200);
                   wogd rejects it (its depth is window)
  seeds            evaluation seeds, e.g. 1,2,3 (default 1..eval_runs)
  tuning_runs      seeds used per grid point, default 10
  eval_runs        default evaluation seed count, default 30
  init_std         stddev of the Gaussian weight init, default 0.1
  record_regret    true/false: track projected-gradient norms per step
  record_smoothness  true/false: track finite-difference curvature (implies
                   record_regret and replay gradients)
  regret_every     instrument every k-th step (default 1: every step; each
                   sample costs two spectral projections); k > 1 needs
                   record_regret or record_smoothness
  check_gradient_bounds  true/false, wogd only: assert the closed-form
                   gradient-norm ceiling each step while the constraint
                   preconditions hold
  out_dir          output directory for emit_outputs

Per-seed randomness: each seed spawns two independent PCG64 generators via
``np.random.SeedSequence(seed).spawn(2)`` -- child 0 initializes the weights,
child 1 drives the data stream. Identical (config, seed) pairs therefore
yield bit-identical trajectories on one platform.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import analysis, models, tasks
from .gradients import (
    GRADIENT_MODES,
    ActivationTape,
    NumericOverflowError,
    elman_window_gradient,
    instant_gradient,
    tbptt_gradient,
)
from .linalg import frobenius_norms
from .optim import BaselineConfig, WogdConfig, baseline_step, projected_gradient, wogd_step

SCHEMA_VERSION = 1
TASK_KINDS = ("csv", "binary_add", "synthetic")
MODEL_KINDS = ("srnn", "lstm", "cwrnn")
OPTIMIZER_KINDS = ("wogd", "sgd", "rmsprop", "adam")


class ConfigError(ValueError):
    """Invalid experiment configuration; reported before any work starts."""


class GridSearchError(RuntimeError):
    """Every grid point diverged; carries the per-point report."""

    def __init__(self, rows):
        super().__init__("all grid points diverged")
        self.rows = rows


class DivergedSeedsError(NumericOverflowError):
    """Some seeds of a run diverged; carries the results of the seeds that
    finished and the error of each diverged seed, both in seed order. Its
    message and timestep are those of the first diverged seed."""

    def __init__(self, results: list[RunResult], diverged: dict[int, NumericOverflowError]):
        first = next(iter(diverged.values()))
        super().__init__(first.timestep, first.what)
        self.results = results
        self.diverged = diverged

    def __reduce__(self):
        return type(self), (self.results, self.diverged)


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    model: str
    n_h: int
    optimizer: str
    # task parameters
    dataset: str | None = None
    target_column: int = -1
    steps: int = 0
    features: int = 3
    n_sequences: int = 2
    horizon: int = 1000
    cutoff: int = 50_000
    # model parameters
    periods: tuple[int, ...] = (1, 2, 4, 8, 16)
    init_std: float = 0.1
    # optimizer parameters
    eta: float = 0.03
    window: int = 200
    lam: float = 0.95
    alpha: float = 7.5
    out_lr_scale: float = 8.0
    out_radius: float = 2.5
    gradient_mode: str = "replay"
    learning_rate: float = 0.01
    tbptt_depth: int = 0
    # protocol
    seeds: tuple[int, ...] = ()
    tuning_runs: int = 10
    eval_runs: int = 30
    # instrumentation
    record_regret: bool = False
    record_smoothness: bool = False
    regret_every: int = 1
    check_gradient_bounds: bool = False
    out_dir: str = "results"

    @property
    def label(self) -> str:
        if self.optimizer == "wogd":
            return f"{self.model}-wogd(w={self.window})"
        return f"{self.model}-{self.optimizer}"

    @property
    def loss_kind(self) -> str:
        return tasks.LOSS_CROSS_ENTROPY if self.task == "binary_add" else tasks.LOSS_SQUARED

    @property
    def tape_depth(self) -> int:
        return self.tbptt_depth if self.tbptt_depth > 0 else self.window

    def eval_seeds(self) -> tuple[int, ...]:
        return self.seeds if self.seeds else tuple(range(1, self.eval_runs + 1))

    def tuning_seeds(self) -> tuple[int, ...]:
        return tuple(range(1001, 1001 + self.tuning_runs))


_KEY_ALIASES = {"lambda": "lam"}


def _bool(value) -> bool:
    text = str(value).strip().lower()
    if text not in ("true", "false", "1", "0", "yes", "no"):
        raise ValueError(text)
    return text in ("true", "1", "yes")


def _int_tuple(value) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    return tuple(int(v) for v in str(value).split(",") if v.strip())


# annotation (a string, under postponed evaluation) -> coercer of a raw value
_COERCERS = {
    "int": lambda v: int(str(v)),
    "float": lambda v: float(str(v)),
    "bool": _bool,
    "str": lambda v: str(v).strip(),
    "str | None": lambda v: str(v).strip(),
    "tuple[int, ...]": _int_tuple,
}
# a field whose annotation has no coercer fails here, at import (KeyError)
_COERCE = {f.name: _COERCERS[f.type] for f in fields(ExperimentConfig)}
_REQUIRED = tuple(f.name for f in fields(ExperimentConfig) if f.default is MISSING)


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key = value lines into a raw string mapping."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def config_from_mapping(raw: dict) -> ExperimentConfig:
    """Validate and coerce a raw mapping; collects every problem it finds."""
    problems: list[str] = []
    values: dict = {}
    version = str(raw.get("schema_version", "")).strip()
    if version != str(SCHEMA_VERSION):
        problems.append(f"schema_version must be {SCHEMA_VERSION}, got {version or 'missing'}")

    for key, value in raw.items():
        if key == "schema_version":
            continue
        name = _KEY_ALIASES.get(key, key)
        if name not in _COERCE:
            problems.append(f"unknown key {key!r}")
            continue
        try:
            values[name] = _COERCE[name](value)
        except (TypeError, ValueError):
            problems.append(f"bad value for {key!r}: {value!r}")
    if values.get("seeds") == ():  # a seeds key that lists none; no key means 1..eval_runs
        problems.append(f"seeds lists no seed: {raw['seeds']!r}")

    for required in _REQUIRED:
        if required not in values:
            problems.append(f"missing required key {required!r}")
    if problems:
        raise ConfigError("; ".join(problems))
    return _validate(ExperimentConfig(**values))


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """cfg itself, or a ConfigError naming every cross-field problem found."""
    p: list[str] = []
    if cfg.task not in TASK_KINDS:
        p.append(f"task must be one of {TASK_KINDS}")
    if cfg.model not in MODEL_KINDS:
        p.append(f"model must be one of {MODEL_KINDS}")
    if cfg.optimizer not in OPTIMIZER_KINDS:
        p.append(f"optimizer must be one of {OPTIMIZER_KINDS}")
    if cfg.n_h < 1:
        p.append("n_h must be >= 1")
    if cfg.task == "csv" and not cfg.dataset:
        p.append("csv task requires a dataset path")
    if cfg.task == "synthetic" and cfg.steps < 1:
        p.append("synthetic task requires steps >= 1")
    if cfg.task == "synthetic" and cfg.features < 1:
        p.append("synthetic task requires features >= 1")
    if cfg.init_std < 0:
        p.append("init_std must be >= 0")
    if cfg.tbptt_depth < 0:
        p.append("tbptt_depth must be >= 0 (0: use window)")
    elif cfg.optimizer == "wogd" and cfg.tbptt_depth > 0:
        p.append("tbptt_depth applies to the baselines; wogd backpropagates through its window")
    elif cfg.tape_depth < 1:
        p.append("window must be >= 1 (the tape depth when tbptt_depth = 0)")
    if cfg.gradient_mode not in GRADIENT_MODES:
        p.append(f"gradient_mode must be one of {GRADIENT_MODES}")
    if cfg.task == "binary_add":
        if cfg.n_sequences not in (2, 3):
            p.append("n_sequences must be 2 or 3")
        if cfg.horizon < 1:
            p.append("horizon must be >= 1")
    if cfg.optimizer == "wogd" and cfg.model == "lstm":
        p.append("the windowed projected update applies to srnn/cwrnn parameter triples")
    if cfg.model == "cwrnn":
        if len(cfg.periods) < 1:
            p.append("cwrnn requires periods")
        elif cfg.n_h % len(cfg.periods) != 0:
            p.append(f"n_h={cfg.n_h} not divisible by {len(cfg.periods)} clock blocks")
    if cfg.record_smoothness and cfg.optimizer != "wogd":
        p.append("record_smoothness requires the wogd optimizer")
    if cfg.record_smoothness and cfg.gradient_mode != "replay":
        p.append("record_smoothness requires replay gradients")
    if cfg.record_regret and cfg.optimizer != "wogd":
        p.append("record_regret requires the wogd optimizer")
    if cfg.regret_every < 1:
        p.append("regret_every must be >= 1")
    elif cfg.regret_every > 1 and not (cfg.record_regret or cfg.record_smoothness):
        p.append("regret_every > 1 requires record_regret or record_smoothness")
    if cfg.check_gradient_bounds and cfg.optimizer != "wogd":
        p.append("check_gradient_bounds requires the wogd optimizer")
    if cfg.check_gradient_bounds and (cfg.model != "srnn" or cfg.loss_kind != tasks.LOSS_SQUARED):
        p.append("check_gradient_bounds supports srnn with squared loss")
    if cfg.tuning_runs < 1 or cfg.eval_runs < 1:
        p.append("tuning_runs and eval_runs must be >= 1")
    if cfg.seeds and len(set(cfg.seeds)) != len(cfg.seeds):
        p.append("seeds must be distinct")
    try:
        _optimizer(cfg)
    except ValueError as exc:
        p.append(str(exc))
    if p:
        raise ConfigError("; ".join(p))
    return cfg


def _optimizer(cfg: ExperimentConfig) -> WogdConfig | BaselineConfig:
    if cfg.optimizer == "wogd":
        return WogdConfig(
            eta=cfg.eta, lam=cfg.lam, alpha=cfg.alpha,
            out_lr_scale=cfg.out_lr_scale, out_radius=cfg.out_radius,
        )
    return BaselineConfig(kind=cfg.optimizer, learning_rate=cfg.learning_rate)


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    return config_from_mapping(parse_config_text(text))


@dataclass
class RunResult:
    """Metrics of one (config, seed) training run."""

    label: str
    seed: int
    steps: int
    mse: float
    # wall time of the online loop; for a run trained in lockstep by
    # run_batch, the batch's wall time over its number of seeds
    runtime_s: float
    curve: np.ndarray  # cumulative mean loss per step
    sustainable_t: int | None = None
    projection_count: int = 0
    ledger: analysis.RegretLedger | None = None


def _result(
    cfg: ExperimentConfig, seed: int, runtime_s: float, losses: np.ndarray,
    sustainable_t: int | None, projection_count: int = 0, ledger=None,
) -> RunResult:
    curve = np.cumsum(losses) / np.arange(1, losses.shape[0] + 1)
    return RunResult(
        label=cfg.label, seed=seed, steps=losses.shape[0], mse=float(curve[-1]),
        runtime_s=runtime_s, curve=curve, sustainable_t=sustainable_t,
        projection_count=projection_count, ledger=ledger,
    )


def _build_params(cfg: ExperimentConfig, n_x: int, rng: np.random.Generator):
    if cfg.model == "srnn":
        return models.random_srnn(cfg.n_h, n_x, cfg.init_std, rng)
    if cfg.model == "lstm":
        return models.random_lstm(cfg.n_h, n_x, cfg.init_std, rng)
    return models.random_cwrnn(cfg.n_h, n_x, cfg.periods, cfg.init_std, rng)


def _csv_stream(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    records = tasks.load_csv_stream(cfg.dataset, cfg.target_column)
    x, d = tasks.scaled_stream(records, tasks.fit_scaling(records, cfg.n_h, cfg.target_column))
    n = cfg.steps if cfg.steps > 0 else None
    return x[:n], d[:n]


class _Streams:
    """The inputs x_t (B, n_x) and targets d_t (B,) of B runs, step by step.

    csv and synthetic streams are built whole; a csv file is loaded and
    scaled once and shared by every run through a member axis of length 1.
    Binary addition continues each run's bit stream 512 steps at a time as
    the loop reaches them.
    """

    def __init__(self, cfg: ExperimentConfig, data_rngs):
        self.bits = None
        if cfg.task == "binary_add":
            self.bits = [tasks.BinaryAddState(n=cfg.n_sequences, rng=r) for r in data_rngs]
            self.total, self.n_x = cfg.cutoff, cfg.n_sequences + 1
            self.start = self.end = 1
        else:
            if cfg.task == "csv":
                parts = [_csv_stream(cfg)]
            else:
                parts = [
                    tasks.synthetic_regression_stream(cfg.features, cfg.steps, r, cfg.n_h)
                    for r in data_rngs
                ]
            self._stack(parts, 1)
            self.total, self.n_x = self.end - 1, self.x.shape[2]
        if self.total < 1:
            raise ConfigError("stream is empty")

    def _stack(self, parts, t: int) -> None:
        self.x = np.stack([x for x, _ in parts], axis=1)
        self.d = np.stack([d for _, d in parts], axis=1)
        self.start, self.end = t, t + self.d.shape[0]

    def at(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        if t == self.end:
            chunk = min(512, self.total - t + 1)
            self._stack([tasks.binary_add_stream(s, chunk) for s in self.bits], t)
        return self.x[t - self.start], self.d[t - self.start]

    def keep(self, members) -> None:
        """Drop every run not listed, by batch position."""
        if self.bits:
            self.bits = [self.bits[b] for b in members]
        if self.x.shape[1] > 1:  # take, as in ActivationTape.keep: rows stay contiguous
            self.x, self.d = self.x.take(members, axis=1), self.d.take(members, axis=1)


def _gradient_bound_check(params, grads, failed, cfg: ExperimentConfig, t: int) -> None:
    # Closed-form gradient ceiling of B runs ((B, ...) stacks keyed like
    # param_blocks), checked on the runs whose gradient did not fail; only
    # binding while the spectral and output-norm preconditions hold at this
    # step. The spectral norms are those of the SVD spectral_norm takes.
    lam, n_h = cfg.lam, params["w"].shape[1]
    binding = np.array([f is None for f in failed]) & (frobenius_norms(params["theta_out"]) <= 1.0)
    over = np.zeros(len(failed), dtype=bool)
    for name in ("w", "u"):
        binding &= np.linalg.svd(params[name], full_matrices=False)[1][:, 0] <= lam
        bound = 2.0 * math.sqrt(n_h) * math.sqrt(params[name].shape[2]) / (1.0 - lam)
        over |= frobenius_norms(grads[name]) > bound + 1e-9
    if (binding & over).any():
        raise AssertionError(f"gradient-norm ceiling violated at t={t}")


# A diverging run is reported by the finiteness checks, with its timestep,
# not by numpy's floating-point warnings.
_quiet_divergence = np.errstate(over="ignore", invalid="ignore")


def run_single(cfg: ExperimentConfig, seed: int) -> RunResult:
    """The online loop (predict, observe, update) of one seed: the one-seed
    batch of run_batch. A diverging run raises its own NumericOverflowError."""
    try:
        return run_batch(cfg, [seed])[0]
    except DivergedSeedsError as exc:
        raise exc.diverged[seed] from None


def _paired_windows(tape: ActivationTape, x_next: np.ndarray, d_next: np.ndarray):
    """The full window of B runs beside the window one step on, which drops
    the oldest step and ends with the next inputs x_next (B|1, n_x) and
    targets d_next (B|1,), as 2B members of a replay-mode
    elman_window_gradient call: inputs, targets, no predictions, the two
    anchors h[0] and h[1], and per-member timesteps."""
    m, batch = tape.d.shape
    x, d = np.empty((m, 2 * batch, tape.x.shape[2])), np.empty((m, 2 * batch))
    for full, pair, last in ((tape.x, x, x_next), (tape.d, d, d_next)):
        pair[:, :batch] = full
        pair[:-1, batch:] = full[1:]
        pair[-1, batch:] = last
    h = tape.h[:2].reshape(1, 2 * batch, -1)
    ts = np.repeat(tape.ts[:, None] + [0, 1], batch, axis=1)
    return x, d, None, h, ts


# Sampled steps whose regret and smoothness entries run_batch records at once.
_BLOCK = 64


def _record_block(ledger, block: list, opt: WogdConfig) -> None:
    """Record the entries of the K sampled steps in block, each (parameters
    before the update, gradients, probe gradients or None, parameters after)
    of B runs, with one call each over (K * B, ...) stacks: bitwise the calls
    step by step. Empties block."""
    before, grads, after, new = (
        None if part[0] is None else {k: np.concatenate([p[k] for p in part]) for k in part[0]}
        for part in zip(*block)
    )
    projected = projected_gradient(before, grads, opt)
    ledger.record_regret({k: g.reshape(len(block), -1, *g.shape[1:]) for k, g in projected.items()})
    if after is not None:
        ledger.record_smoothness(analysis.estimate_smoothness(grads, after, before, new))
    block.clear()


@_quiet_divergence
def run_batch(cfg: ExperimentConfig, seeds) -> list[RunResult]:
    """Train the seeds of one config in lockstep, whatever its model and
    optimizer; one seed is the B = 1 batch.

    Each member keeps its own generators, stream, parameters, window,
    optimizer moments and regret entries; only the numpy calls are shared
    (parameters as (B, ...) stacks keyed like param_blocks, one
    ActivationTape and one RegretLedger with a member axis, the batched
    kernels). So every field of a result except runtime_s is bit for bit the
    same whichever seeds share the batch. runtime_s is the batch's wall time
    over the number of seeds.

    The first-order baselines (sgd, rmsprop, adam) backpropagate the newest
    loss through the recorded activations of the last tape_depth steps
    (instant_gradient) and update every block. WOGD descends the window's
    mean loss (tbptt_gradient); its instrumentation runs over the member
    stacks: at every step the closed-form gradient ceiling (an AssertionError
    when violated), and on every regret_every-th step the smoothness probe
    after the update, which replays the window at the new hidden weights and
    the old output weights. Step t + 1's replay runs at the same hidden
    weights, so once the window is full and before the last step the probe
    is one elman_window_gradient call that also replays the next window (one
    step on, from the next anchor, at the new output weights) as B more
    members, and step t + 1 takes its gradient from there instead of calling
    the kernel again. A sampled step only keeps its stacks (parameters before
    and after the update, gradients, probe gradients); the regret and
    smoothness entries are computed from them a block at a time, every
    _BLOCK sampled steps and before any member leaves (the last step too).

    A member leaves the batch when it reaches the binary-addition horizon or
    when its gradient, update, smoothness probe or loss turns non-finite; the
    others finish, and then a DivergedSeedsError carries their results; its
    timestep and message are those of the first diverged seed (in seed
    order).
    """
    seeds = tuple(seeds)
    if not seeds:
        return []
    loss_kind = cfg.loss_kind
    squared = loss_kind == tasks.LOSS_SQUARED
    rngs = [
        [np.random.default_rng(c) for c in np.random.SeedSequence(s).spawn(2)] for s in seeds
    ]
    stream = _Streams(cfg, [r[1] for r in rngs])
    total, n_x = stream.total, stream.n_x
    binary = cfg.task == "binary_add"
    lstm = cfg.model == "lstm"
    wogd = cfg.optimizer == "wogd"

    members = [_build_params(cfg, n_x, r[0]) for r in rngs]
    template = members[0]
    params = {  # block name -> (B, ...) stack
        name: np.stack([getattr(p, name) for p in members])
        for name, _ in models.param_blocks(template)
    }
    zeros = np.zeros((len(seeds), cfg.n_h))
    tape = ActivationTape(cfg.tape_depth, zeros, n_x, zeros if lstm else None)
    opt = _optimizer(cfg)
    moments: dict = {}  # (moment, block) -> (B, ...) stack, for rmsprop and adam
    instrumented = cfg.record_regret or cfg.record_smoothness
    ledger = analysis.RegretLedger() if instrumented else None  # with a member axis

    order = np.arange(len(seeds))  # seed position of each batch member
    pending = None  # step t + 1's (grads, failed), replayed in step t's probe call
    block: list = []  # the sampled steps whose ledger entries are not recorded yet
    losses = np.empty((total, len(seeds)))
    projections = np.zeros(len(seeds), dtype=np.int64)
    consec = np.zeros(len(seeds), dtype=np.int64)
    # seed position -> (losses, sustainable_t, projection_count, ledger)
    finished: dict[int, tuple] = {}
    diverged: dict[int, NumericOverflowError] = {}
    started = time.perf_counter()

    for t in range(1, total + 1):
        x_t, d_t = stream.at(t)

        # the online step: the m = 1 case of the kernels the replay runs
        h_new, gates = models.step_model(
            template, params, x_t, tape.state, tape.c[-1] if lstm else None, t
        )
        pred = models.readout(h_new[:, None], params["theta_out"], loss_kind)[:, 0]
        tape.push(x_t, d_t, pred, h_new, gates)

        if pending is not None:
            (grads, failed), pending = pending, None
        elif wogd:
            grads, failed = tbptt_gradient(tape, params, template, cfg.gradient_mode, loss_kind)
        else:
            grads, failed = instant_gradient(tape, params, template, loss_kind)
        sampled = instrumented and (t - 1) % cfg.regret_every == 0
        probing = sampled and cfg.record_smoothness
        before = params  # both updates return new stacks
        if wogd:  # a member whose gradient failed leaves, its ledger rows with it
            if cfg.check_gradient_bounds:
                _gradient_bound_check(params, grads, failed, cfg, t)
            params, clips, bad = wogd_step(opt, template, params, grads, t)
            projections += clips
        else:
            params, bad = baseline_step(opt, params, grads, moments, t)

        probe_failed, after = [None] * len(order), None
        if probing:
            # the same windowed loss at (new w, new u, old theta_out)
            w, u, theta = params["w"], params["u"], params["theta_out"]
            if len(tape) == cfg.window and t < total:
                # members B..2B-1: step t + 1's replay at (new w, new u, new theta_out)
                batch = len(order)
                both, probe_failed = elman_window_gradient(
                    *_paired_windows(tape, *stream.at(t + 1)),
                    np.concatenate([w, w]), np.concatenate([u, u]),
                    np.concatenate([before["theta_out"], theta]), "replay", loss_kind,
                    np.full(cfg.window, 1.0 / cfg.window), template,
                )
                after = {k: g[:batch] for k, g in both.items()}
                pending = {k: g[batch:] for k, g in both.items()}, probe_failed[batch:]
            else:
                after, probe_failed = tbptt_gradient(
                    tape, {**params, "theta_out": before["theta_out"]}, template, "replay",
                    loss_kind,
                )
        if sampled:
            block.append((before, grads, after, params))

        row = tasks.losses(pred, d_t, loss_kind)
        # a squared row is twice the loss: the squared error r * r that mse reports
        losses[t - 1] = 2.0 * row if squared else row
        lost = ~np.isfinite(losses[t - 1])
        # the kernel's failure, else the update's, the probe's, the loss's
        leaving = []
        for b, what in enumerate(failed):
            what = what or bad[b] or probe_failed[b] or ("loss" if lost[b] else None)
            if what:
                diverged[int(order[b])] = NumericOverflowError(t, what)
                leaving.append(b)

        done = []  # (batch position, steps run, sustainable_t)
        if binary:
            consec = tasks.correct_streaks(consec, pred, d_t)
            done = [(b, t, t - cfg.horizon + 1) for b in np.flatnonzero(consec >= cfg.horizon)]
        if t == total:
            done += [(b, t, None) for b in range(len(order))]
        if block and (leaving or done or len(block) == _BLOCK):  # before rows are read or kept
            _record_block(ledger, block, opt)
        for b, steps_run, sustainable_t in done:
            if b not in leaving:
                finished[int(order[b])] = (
                    losses[:steps_run, b].copy(), sustainable_t, int(projections[b]),
                    None if ledger is None else ledger.member(b),
                )
                leaving.append(b)
        if leaving:
            keep = [b for b in range(len(order)) if b not in leaving]
            if not keep:
                break
            order, projections, consec = order[keep], projections[keep], consec[keep]
            params = {k: a[keep] for k, a in params.items()}
            moments = {k: a[keep] for k, a in moments.items()}
            losses = losses.take(keep, axis=1)
            tape.keep(keep)
            stream.keep(keep)
            if ledger is not None:
                ledger.keep(keep)
            if pending is not None:
                pending = {k: g[keep] for k, g in pending[0].items()}, [pending[1][b] for b in keep]

    runtime = (time.perf_counter() - started) / len(seeds)
    results = [
        _result(cfg, seed, runtime, *finished[k])
        for k, seed in enumerate(seeds)
        if k in finished
    ]
    if diverged:
        raise DivergedSeedsError(results, {seeds[k]: diverged[k] for k in sorted(diverged)})
    return results


def _run_seeds(cfg: ExperimentConfig, seeds: tuple[int, ...]):
    """The results of the seeds that finished and the error of each seed
    that diverged, in seed order, from one lockstep batch."""
    try:
        return run_batch(cfg, seeds), {}
    except DivergedSeedsError as exc:
        return exc.results, exc.diverged


def run_many(cfg: ExperimentConfig, seeds=None, workers: int = 1) -> list[RunResult]:
    """Independent (config, seed) runs; the result order follows the seed list.

    Every config trains its seeds in lockstep with run_batch; with
    workers > 1, the seed list is split into that many contiguous chunks, one
    batch per worker process. Every field of a result except runtime_s is
    bitwise the run_single result of its seed. A diverged seed does not stop
    the others: when any diverges, a DivergedSeedsError carries the results
    of those that finished. A worker count below 1 is a ConfigError.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    seeds = tuple(seeds) if seeds is not None else cfg.eval_seeds()
    k = max(1, min(workers, len(seeds)))
    parts = [seeds[i * len(seeds) // k : (i + 1) * len(seeds) // k] for i in range(k)]
    if workers > 1 and len(parts) > 1:
        # imported here: the pool machinery takes about a tenth of `import wogd`
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=min(workers, len(parts)), mp_context=context) as pool:
            done = list(pool.map(_run_seeds, [cfg] * len(parts), parts))
    else:
        done = [_run_seeds(cfg, part) for part in parts]
    results = [r for part, _ in done for r in part]
    diverged = {s: exc for _, part in done for s, exc in part.items()}
    if diverged:
        raise DivergedSeedsError(results, diverged)
    return results


def grid_search(cfg: ExperimentConfig, grid, tuning_seeds=None):
    """Mean-MSE argmin over learning rates; diverged points are excluded and
    flagged. Ties break toward the smaller rate. Returns (best, rows) where
    rows are (rate, mean_mse or None, note).

    The tuning seeds of one rate run as one run_batch (eta for wogd, the
    learning rate for the baselines); the means are those of run_single.
    Each rate's config, with the tuning seeds as its seeds, is validated as a
    config file is, before the first run.
    """
    grid = tuple(grid)
    if not grid:
        raise ConfigError("learning-rate grid is empty")
    seeds = tuple(tuning_seeds) if tuning_seeds is not None else cfg.tuning_seeds()
    if not seeds:
        raise ConfigError("tuning seed list is empty")
    key = "eta" if cfg.optimizer == "wogd" else "learning_rate"
    candidates = [_validate(replace(cfg, seeds=seeds, **{key: rate})) for rate in grid]
    rows = []
    for rate, candidate in zip(grid, candidates):
        results, diverged = _run_seeds(candidate, seeds)
        if diverged:
            first = next(iter(diverged.values()))
            rows.append((rate, None, f"diverged at t={first.timestep}"))
            continue
        rows.append((rate, float(np.mean([r.mse for r in results])), ""))
    finite = [(mse, rate) for rate, mse, _ in rows if mse is not None]
    if not finite:
        raise GridSearchError(rows)
    _, best = min(finite)
    return best, rows


@dataclass
class SummaryRow:
    label: str
    n_runs: int
    mse_mean: float
    mse_min: float
    mse_max: float
    runtime_mean_s: float
    projection_mean: float
    sustainable: tuple[int | None, ...] = field(default=())


@dataclass
class Summary:
    rows: list[SummaryRow]
    curves: dict[str, np.ndarray]
    regret: dict[str, tuple[np.ndarray, np.ndarray]]  # label -> (R(t), R(t)/t) means
    smoothness: dict[str, tuple[np.ndarray, np.ndarray]]  # label -> (mean, max) beta_exp
    seeds: dict[str, tuple[int, ...]]


def aggregate(results: list[RunResult]) -> Summary:
    """Group runs by label; curves and instrumentation are averaged across
    seeds (truncated to the shortest run within a label)."""
    if not results:
        raise ValueError("no results to aggregate")
    by_label: dict[str, list[RunResult]] = {}
    for r in results:
        by_label.setdefault(r.label, []).append(r)
    rows = []
    curves: dict[str, np.ndarray] = {}
    regret: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    smooth: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    seeds: dict[str, tuple[int, ...]] = {}
    for label, runs in by_label.items():
        mses = [r.mse for r in runs]
        rows.append(
            SummaryRow(
                label=label,
                n_runs=len(runs),
                mse_mean=float(np.mean(mses)),
                mse_min=float(np.min(mses)),
                mse_max=float(np.max(mses)),
                runtime_mean_s=float(np.mean([r.runtime_s for r in runs])),
                projection_mean=float(np.mean([r.projection_count for r in runs])),
                sustainable=tuple(r.sustainable_t for r in runs),
            )
        )
        seeds[label] = tuple(r.seed for r in runs)
        min_len = min(r.curve.shape[0] for r in runs)
        curves[label] = np.mean([r.curve[:min_len] for r in runs], axis=0)
        ledgers = [r.ledger for r in runs if r.ledger is not None and len(r.ledger)]
        if ledgers:
            n = min(len(led) for led in ledgers)
            regret[label] = (
                np.mean([led.regret[:n] for led in ledgers], axis=0),
                np.mean([led.normalized[:n] for led in ledgers], axis=0),
            )
            betas = np.array([led.beta_exp[:n] for led in ledgers], dtype=np.float64)  # None: nan
            if not np.isnan(betas).all():
                smooth[label] = (np.nanmean(betas, axis=0), np.nanmax(betas, axis=0))
    return Summary(rows=rows, curves=curves, regret=regret, smoothness=smooth, seeds=seeds)


def emit_outputs(
    summary: Summary,
    out_dir,
    config_mapping: dict | None = None,
    diverged: dict[int, NumericOverflowError] | None = None,
) -> list[str]:
    """Write summary.csv, curves.csv, regret.csv, smoothness.csv (the last two
    only when instrumentation exists) plus a manifest.json recording the exact
    config, the seeds and, per diverged seed, where it diverged. Column order
    is stable; every numeric cell is emitted with full repr precision."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    labels = [row.label for row in summary.rows]
    analysis.write_csv(
        out / "summary.csv",
        ["label", "n_runs", "mse_mean", "mse_min", "mse_max", "mean_runtime_s",
         "projection_mean", "sustainable_steps"],
        zip(*[
            (row.label, row.n_runs, row.mse_mean, row.mse_min, row.mse_max,
             f"{row.runtime_mean_s:.6f}", row.projection_mean,
             ";".join("failed" if s is None else str(s) for s in row.sustainable))
            for row in summary.rows
        ]),
    )
    written.append("summary.csv")

    n = min(c.shape[0] for c in summary.curves.values())
    analysis.write_csv(
        out / "curves.csv",
        ["t"] + labels,
        [np.arange(1, n + 1)] + [summary.curves[lab][:n] for lab in labels],
    )
    written.append("curves.csv")

    for name, channel, columns in (
        ("regret.csv", summary.regret, ("regret", "normalized_regret")),
        ("smoothness.csv", summary.smoothness, ("beta_exp_mean", "beta_exp_max")),
    ):
        if not channel:
            continue
        n = min(pair[0].shape[0] for pair in channel.values())
        header, cols = ["t"], [np.arange(1, n + 1)]
        for lab, pair in channel.items():
            header += [f"{lab}:{col}" for col in columns]
            cols += [a[:n] for a in pair]
        analysis.write_csv(out / name, header, cols)
        written.append(name)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": config_mapping or {},
        "labels": labels,
        "seeds": {lab: list(s) for lab, s in summary.seeds.items()},
        "files": written,
        "omitted": [f for f in ("regret.csv", "smoothness.csv") if f not in written],
        "diverged": {
            str(seed): {"timestep": exc.timestep, "what": exc.what}
            for seed, exc in (diverged or {}).items()
        },
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append("manifest.json")
    return written
