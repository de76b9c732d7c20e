"""Config parsing, run determinism, grid search, aggregation, CSV emission."""

import dataclasses
import json
import math
import pickle
import re
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wogd import analysis, cli, gradients, harness, linalg, models, optim, tasks
from wogd.cli import main as cli_main
from wogd.gradients import ActivationTape, NumericOverflowError, instant_gradient, tbptt_gradient
from wogd.harness import (
    ConfigError,
    DivergedSeedsError,
    ExperimentConfig,
    GridSearchError,
    aggregate,
    config_from_mapping,
    emit_outputs,
    grid_search,
    load_config,
    parse_config_text,
    run_batch,
    run_many,
    run_single,
)
from wogd.linalg import clip_singular_values, spectral_norm
from wogd.optim import BaselineConfig, WogdConfig, baseline_step, wogd_step

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = str(Path(__file__).parent / "data" / "fixture_regression.csv")


def fixture_cfg(**over):
    base = dict(
        task="csv", dataset=FIXTURE, model="srnn", n_h=4, optimizer="wogd",
        eta=0.05, window=10, seeds=(1, 2),
    )
    base.update(over)
    return ExperimentConfig(**base)


CONFIG_TEXT = f"""
# demo experiment
schema_version = 1
task = csv
dataset = {FIXTURE}
model = srnn
n_h = 4
optimizer = wogd
eta = 0.05
window = 10
lambda = 0.9
seeds = 1,2
out_dir = results
"""


class TestConfigParsing:
    def test_happy_path(self):
        cfg = config_from_mapping(parse_config_text(CONFIG_TEXT))
        assert cfg.task == "csv"
        assert cfg.lam == 0.9
        assert cfg.seeds == (1, 2)
        assert cfg.label == "srnn-wogd(w=10)"

    def test_requires_schema_version(self):
        raw = parse_config_text(CONFIG_TEXT.replace("schema_version = 1", ""))
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_mapping(raw)

    def test_unknown_key(self):
        raw = parse_config_text(CONFIG_TEXT + "\nmomentum = 0.9\n")
        with pytest.raises(ConfigError, match="momentum"):
            config_from_mapping(raw)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(CONFIG_TEXT + "\ntask = csv\n")

    def test_collects_multiple_problems(self):
        raw = {"schema_version": "1", "task": "csv", "model": "mamba", "n_h": "0",
               "optimizer": "wogd"}
        with pytest.raises(ConfigError) as err:
            config_from_mapping(raw)
        msg = str(err.value)
        assert "model" in msg and "n_h" in msg and "dataset" in msg

    def test_wogd_lstm_rejected(self):
        raw = parse_config_text(CONFIG_TEXT.replace("model = srnn", "model = lstm"))
        with pytest.raises(ConfigError, match="triples"):
            config_from_mapping(raw)

    def test_cwrnn_block_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            config_from_mapping(
                {"schema_version": "1", "task": "synthetic", "steps": "50",
                 "model": "cwrnn", "n_h": "5", "periods": "1,2", "optimizer": "sgd"}
            )

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"n_h": "ten"}, "bad value for 'n_h': 'ten'; missing required key 'n_h'"),
            ({"eta": "fast"}, "bad value for 'eta': 'fast'"),
            ({"record_regret": "maybe"}, "bad value for 'record_regret': 'maybe'"),
            ({"seeds": "1,x"}, "bad value for 'seeds': '1,x'"),
            ({"lambda": "big"}, "bad value for 'lambda': 'big'"),
            ({"schema_version": None, "task": None, "model": None, "n_h": None,
              "optimizer": None},
             "schema_version must be 1, got missing; missing required key 'task'; "
             "missing required key 'model'; missing required key 'n_h'; "
             "missing required key 'optimizer'"),
        ],
        ids=["int", "float", "bool", "int-list", "alias", "missing-required-order"],
    )
    def test_coercion_messages_pinned(self, raw, message):
        base = {"schema_version": "1", "task": "synthetic", "steps": "20", "model": "srnn",
                "n_h": "3", "optimizer": "wogd"}
        merged = {k: v for k, v in {**base, **raw}.items() if v is not None}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_mapping(merged)

    def test_docstring_key_table_names_the_accepted_keys(self):
        """The module docstring's key table is the documented schema: it names
        schema_version, each alias, and every field that is not aliased."""
        doc = harness.__doc__
        table = doc[doc.index("Recognized keys:"):doc.index("\n\nPer-seed randomness")]
        documented = re.findall(r"^  (\w+) ", table, flags=re.M)
        aliased = set(harness._KEY_ALIASES.values())
        accepted = {"schema_version", *harness._KEY_ALIASES} | {
            f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in aliased
        }
        assert len(documented) == len(set(documented))
        assert set(documented) == accepted

    @pytest.mark.parametrize(
        "key, value",
        [("loss", "cross_entropy"), ("tbptt_depth", "8"), ("gradient_mode", "cached")],
        ids=["loss", "tbptt_depth", "gradient_mode"],
    )
    def test_loss_key_rejected(self, key, value, tmp_path, capsys):
        """The loss follows from the task, every optimizer backpropagates
        through window steps and WOGD's gradient is the replay; a config
        that sets any of them is refused."""
        raw = {"schema_version": "1", "task": "binary_add", "model": "srnn",
               "n_h": "4", "optimizer": "wogd", key: value,
               "out_dir": str(tmp_path / "out")}
        with pytest.raises(ConfigError, match=f"^unknown key '{key}'$"):
            config_from_mapping(raw)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "change, problem",
        [
            ({"optimizer": "sgd", "window": "0"}, "window must be >= 1"),
            ({"features": "0"}, "features >= 1"),
            ({"init_std": "-1"}, "init_std must be >= 0"),
            ({"optimizer": "sgd", "check_gradient_bounds": "true"},
             "check_gradient_bounds requires the wogd optimizer"),
            ({"regret_every": "3"}, "regret_every > 1 requires record_regret or record_smoothness"),
            ({"task": "binary_add", "horizon": "0"}, "horizon must be >= 1"),
            ({"task": "binary_add", "horizon": "-3"}, "horizon must be >= 1"),
            ({"eval_runs": "0"}, "tuning_runs and eval_runs must be >= 1"),
            ({"tuning_runs": "0"}, "tuning_runs and eval_runs must be >= 1"),
            ({"window": "0"}, "window must be >= 1"),
            ({"seeds": "-1"}, "seeds must be >= 0"),
            ({"task": "csv", "dataset": FIXTURE, "steps": "-5"}, "steps must be >= 0"),
            ({"model": "cwrnn", "n_h": "4", "periods": "0,1"},
             "periods must be one or more positive integers"),
            ({"model": "cwrnn", "n_h": "4", "periods": "4,2"}, "periods must be non-descending"),
        ],
        ids=["window-0", "features-0", "init-std-negative",
             "gradient-bounds-without-wogd", "regret-every-without-recording",
             "horizon-0", "horizon-negative", "eval-runs-0",
             "tuning-runs-0", "wogd-window-0", "negative-seed", "csv-steps-negative",
             "cwrnn-period-0", "cwrnn-periods-descending"],
    )
    def test_rejects_bad_sizes_before_any_run(self, change, problem, tmp_path, capsys):
        raw = {"schema_version": "1", "task": "synthetic", "steps": "20", "model": "srnn",
               "n_h": "3", "optimizer": "wogd", "out_dir": str(tmp_path / "out"), **change}
        with pytest.raises(ConfigError, match=problem):
            config_from_mapping(raw)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRunSingle:
    def test_deterministic_bitwise(self):
        cfg = fixture_cfg()
        a = run_single(cfg, 3)
        b = run_single(cfg, 3)
        assert a.mse == b.mse
        np.testing.assert_array_equal(a.curve, b.curve)
        assert a.steps == b.steps == 160

    def test_seed_changes_trajectory(self):
        cfg = fixture_cfg()
        a = run_single(cfg, 1)
        b = run_single(cfg, 2)
        assert a.mse != b.mse

    def test_curve_is_cumulative_mean(self):
        cfg = fixture_cfg(steps=50)
        res = run_single(cfg, 1)
        assert res.steps == 50
        assert res.curve.shape == (50,)
        assert res.mse == pytest.approx(res.curve[-1])
        # cumulative means are positive and the first entry is the first loss
        assert np.all(res.curve >= 0)

    def test_instrumented_run(self):
        cfg = fixture_cfg(record_regret=True, record_smoothness=True, steps=40)
        res = run_single(cfg, 1)
        assert res.ledger is not None
        assert len(res.ledger) == 40
        assert res.ledger.regret[-1] >= res.ledger.regret[0]
        assert any(b is not None for b in res.ledger.beta_exp)

    def test_instrumentation_stride(self):
        cfg = fixture_cfg(record_regret=True, steps=40, regret_every=5)
        res = run_single(cfg, 1)
        assert len(res.ledger) == 8
        dense = run_single(fixture_cfg(record_regret=True, steps=40), 1)
        # strided samples are the every-5th entries of the dense run
        assert res.ledger.grad_sq_theta == dense.ledger.grad_sq_theta[::5]
        assert res.ledger.grad_sq_mu == dense.ledger.grad_sq_mu[::5]

    def test_empty_stream_rejected(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("only,a,header\n")
        cfg = fixture_cfg(dataset=str(path))
        with pytest.raises(Exception):
            run_single(cfg, 1)

    def test_baseline_models_run(self):
        for model, opt in (("lstm", "adam"), ("cwrnn", "rmsprop"), ("srnn", "sgd")):
            cfg = fixture_cfg(
                model=model, optimizer=opt, learning_rate=0.01, steps=30,
                n_h=4, periods=(1, 2), window=8,
            )
            res = run_single(cfg, 1)
            assert np.isfinite(res.mse)

    def test_gradient_bound_flag(self):
        cfg = fixture_cfg(check_gradient_bounds=True, steps=40, out_radius=1.0,
                          out_lr_scale=1.0, alpha=0.0)
        res = run_single(cfg, 1)  # must not raise
        assert np.isfinite(res.mse)


def _exploding_targets(bad_steps):
    """synthetic_regression_stream with an infinite target at bad_steps[seed]
    for the listed seeds; the seed is read off the data generator."""
    real = tasks.synthetic_regression_stream

    def stream(n_features, steps, rng, n_h, **kwargs):
        x, d = real(n_features, steps, rng, n_h, **kwargs)
        t = bad_steps.get(rng.bit_generator.seed_seq.entropy)
        if t is not None:
            d[t - 1] = np.inf
        return x, d

    return stream


def _synthetic(**over):
    base = dict(task="synthetic", features=3, steps=60, model="srnn", n_h=5,
                optimizer="wogd", eta=0.05, window=20)
    base.update(over)
    return ExperimentConfig(**base)


INSTRUMENTED = dict(record_regret=True, record_smoothness=True)
SGD = dict(optimizer="sgd", learning_rate=0.05, window=10)
RMSPROP_CWRNN = dict(model="cwrnn", n_h=6, periods=(1, 2, 4), optimizer="rmsprop",
                     learning_rate=0.01, window=8)
LSTM_ADAM = dict(model="lstm", optimizer="adam", learning_rate=0.01, window=8)

# name -> (config, how the batched side runs, data patch or None)
BATCH_CASES = {
    "replay-evicting": (_synthetic(), run_batch, None),
    "alpha-0": (_synthetic(steps=40, window=10, alpha=0.0), run_batch, None),
    "cwrnn": (_synthetic(model="cwrnn", n_h=6, periods=(1, 2, 4), features=2), run_batch, None),
    "csv": (fixture_cfg(), run_batch, None),
    "binary-add": (
        ExperimentConfig(task="binary_add", model="srnn", n_h=8, optimizer="wogd",
                         eta=0.5, window=10, horizon=12, cutoff=700),
        run_batch, None,
    ),
    "run-many-workers-1": (_synthetic(), lambda cfg, s: run_many(cfg, s, workers=1), None),
    "run-many-workers-2": (_synthetic(), lambda cfg, s: run_many(cfg, s, workers=2), None),
    "run-many-workers-3": (_synthetic(), lambda cfg, s: run_many(cfg, s, workers=3), None),
    # seed 4 diverges first in time, seed 2 first in seed order
    "diverging-members": (_synthetic(), run_batch, {2: 30, 4: 10}),
    "regret-smoothness": (_synthetic(**INSTRUMENTED), run_batch, None),
    "regret-every-3": (_synthetic(**INSTRUMENTED, regret_every=3), run_batch, None),
    "gradient-bounds": (
        fixture_cfg(check_gradient_bounds=True, steps=40, out_radius=1.0, out_lr_scale=1.0,
                    alpha=0.0),
        run_batch, None,
    ),
    "instrumented-run-many-workers-1": (
        _synthetic(**INSTRUMENTED), lambda cfg, s: run_many(cfg, s, workers=1), None,
    ),
    "instrumented-run-many-workers-2": (
        _synthetic(**INSTRUMENTED), lambda cfg, s: run_many(cfg, s, workers=2), None,
    ),
    "instrumented-diverging-members": (_synthetic(**INSTRUMENTED), run_batch, {2: 30, 4: 10}),
    # the smoothness probe shares its call with the next step's replay: over a
    # csv stream's shared member axis, with members leaving at the horizon
    # while their next-step half is pending, and per member clockwork schedules
    "instrumented-csv": (fixture_cfg(**INSTRUMENTED), run_batch, None),
    "instrumented-binary-add": (
        ExperimentConfig(task="binary_add", model="srnn", n_h=8, optimizer="wogd",
                         eta=0.5, window=10, horizon=12, cutoff=700, **INSTRUMENTED),
        run_batch, None,
    ),
    "instrumented-cwrnn": (
        _synthetic(model="cwrnn", n_h=6, periods=(1, 2, 4), features=2, **INSTRUMENTED),
        run_batch, None,
    ),
    # the first-order baselines and the LSTM train in the same loop
    "srnn-sgd": (_synthetic(**SGD), run_batch, None),
    "cwrnn-rmsprop": (_synthetic(**RMSPROP_CWRNN, features=2), run_batch, None),
    "lstm-adam": (_synthetic(**LSTM_ADAM), run_batch, None),
    "lstm-adam-csv": (fixture_cfg(**LSTM_ADAM), run_batch, None),
    "lstm-sgd-binary-add": (
        ExperimentConfig(task="binary_add", model="lstm", n_h=8, optimizer="sgd",
                         learning_rate=0.5, window=10, horizon=12, cutoff=700),
        run_batch, None,
    ),
    "lstm-run-many-workers-2": (
        _synthetic(**LSTM_ADAM), lambda cfg, s: run_many(cfg, s, workers=2), None,
    ),
    "diverging-baseline-members": (_synthetic(**SGD), run_batch, {2: 30, 4: 10}),
    "diverging-lstm-members": (_synthetic(**LSTM_ADAM), run_batch, {2: 30, 4: 10}),
}


def _outcome(fn):
    try:
        return fn()
    except NumericOverflowError as exc:
        return exc


LEDGER_LISTS = ("grad_sq_theta", "grad_sq_mu", "regret", "normalized", "beta_exp")


def assert_same_runs(got, want):
    if isinstance(want, NumericOverflowError):
        assert isinstance(got, NumericOverflowError)
        assert (got.timestep, got.what) == (want.timestep, want.what)
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.label, a.seed, a.steps, a.mse) == (b.label, b.seed, b.steps, b.mse)
        assert (a.projection_count, a.sustainable_t) == (b.projection_count, b.sustainable_t)
        assert a.curve.dtype == b.curve.dtype
        np.testing.assert_array_equal(a.curve, b.curve)
        assert (a.ledger is None) == (b.ledger is None)
        for name in LEDGER_LISTS if a.ledger is not None else ():
            assert getattr(a.ledger, name) == getattr(b.ledger, name), name


class TestRunBatch:
    SEEDS = (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("case", list(BATCH_CASES))
    def test_bitwise_equal_to_run_single(self, case, monkeypatch):
        cfg, batched, bad_steps = BATCH_CASES[case]
        if bad_steps:
            monkeypatch.setattr(tasks, "synthetic_regression_stream", _exploding_targets(bad_steps))
        serial = _outcome(lambda: [run_single(cfg, s) for s in self.SEEDS])
        got = _outcome(lambda: batched(cfg, self.SEEDS))
        assert_same_runs(got, serial)
        if bad_steps:
            assert isinstance(serial, NumericOverflowError) and serial.timestep == bad_steps[2]
            return
        # a member's numbers do not depend on the batch it runs in
        for k, seed in enumerate(self.SEEDS):
            assert_same_runs(run_batch(cfg, [seed]), [got[k]])
        if case == "alpha-0":
            assert all(r.projection_count > 0 for r in got)
        if case in ("binary-add", "instrumented-binary-add", "lstm-sgd-binary-add"):
            assert len({r.steps for r in got}) > 1  # members leave at different t

    @pytest.mark.parametrize("task", ["synthetic", "binary_add"])
    def test_stream_rows_stay_contiguous_after_keep(self, task):
        # the online step and the tape read x_t and d_t once a member has left
        cfg = _synthetic(task=task, cutoff=50)
        stream = harness._Streams(cfg, [np.random.default_rng(s) for s in (1, 2, 3)])
        stream.at(1)
        stream.keep([0, 2])
        for t in (2, 3):
            assert all(a.flags.c_contiguous for a in stream.at(t))

    @pytest.mark.parametrize(
        "over",
        [{}, INSTRUMENTED, dict(INSTRUMENTED, regret_every=3),
         dict(INSTRUMENTED, model="cwrnn", n_h=6, periods=(1, 2, 4)),
         dict(record_regret=True, window=10, alpha=0.0),
         SGD, RMSPROP_CWRNN, LSTM_ADAM],
        ids=["plain", "instrumented", "every-3", "cwrnn", "regret-alpha-0",
             "srnn-sgd", "cwrnn-rmsprop", "lstm-adam"],
    )
    def test_matches_reference_loop(self, over):
        cfg = _synthetic(**over)
        got = run_batch(cfg, (1, 2, 3))
        for res in got:
            curve, projections, ledger = _reference_run(cfg, res.seed)
            np.testing.assert_array_equal(res.curve, curve)
            assert res.projection_count == projections
            assert (res.ledger is None) == (ledger is None)
            for name in LEDGER_LISTS if ledger is not None else ():
                assert getattr(res.ledger, name) == getattr(ledger, name), name

    def test_gradient_bounds_checked_per_member_and_step(self, monkeypatch):
        calls = []  # (t, batch position) of every member the check covers
        real = harness._gradient_bound_check

        def counting(params, grads, failed, cfg, t):
            calls.extend((t, b) for b, what in enumerate(failed) if what is None)
            real(params, grads, failed, cfg, t)

        monkeypatch.setattr(harness, "_gradient_bound_check", counting)
        cfg = BATCH_CASES["gradient-bounds"][0]
        run_batch(cfg, (1, 2))
        assert sorted(calls) == [(t, b) for t in range(1, 41) for b in (0, 1)]
        calls.clear()
        run_batch(dataclasses.replace(cfg, check_gradient_bounds=False), (1, 2))
        assert calls == []

    def test_probe_shares_the_next_replay_call(self, monkeypatch):
        calls = []
        real = harness.elman_window_gradient

        def counting(*args):
            calls.append(args[0].shape[1])
            return real(*args)

        # run_batch calls the kernel itself for the paired call and through
        # gradients.tbptt_gradient otherwise
        monkeypatch.setattr(harness, "elman_window_gradient", counting)
        monkeypatch.setattr(gradients, "elman_window_gradient", counting)
        run_batch(_synthetic(**INSTRUMENTED), (1,))
        # 60 steps, window 20: steps 1-19 replay and probe apart (38 calls),
        # step 20 replays alone, steps 20-59 probe together with the next
        # step's replay (40 calls of 2 members) and step 60 probes alone
        assert len(calls) == 80
        assert calls.count(2) == 40

    def test_empty_seed_list(self):
        assert run_batch(_synthetic(), ()) == []


BLOCK = harness._BLOCK


class TestSustainability:
    """A binary-addition run is sustainable when its streak of `horizon`
    correct decisions completes within the first `cutoff` steps; seed 1 of
    this config starts its first such streak at t = 17 and completes it at
    t = 28."""

    CFG = ExperimentConfig(task="binary_add", model="srnn", n_h=8, optimizer="wogd",
                           eta=0.5, window=10, horizon=12)

    @pytest.mark.parametrize(
        "cutoff, sustainable_t", [(700, 17), (28, 17), (27, None), (17, None)]
    )
    def test_streak_completes_within_cutoff(self, cutoff, sustainable_t):
        [res] = run_batch(dataclasses.replace(self.CFG, cutoff=cutoff), [1])
        assert res.sustainable_t == sustainable_t
        assert res.steps == (28 if sustainable_t else cutoff)


class TestLedgerBlocks:
    """run_batch records the regret and smoothness entries of up to BLOCK
    sampled steps at once, and before any member leaves: the entries are the
    ones the loop step by step would record, at every block boundary."""

    @pytest.mark.parametrize(
        "every,steps",
        [(1, 30), (1, BLOCK), (1, BLOCK + 1), (5, 5 * (BLOCK + 7) - 2)],
        ids=["shorter-than-a-block", "one-block", "one-block-and-one", "every-5-partial-last"],
    )
    def test_matches_reference_loop(self, every, steps):
        cfg = _synthetic(**INSTRUMENTED, regret_every=every, steps=steps)
        got = run_batch(cfg, (1, 2, 3))
        for res in got:
            assert len(res.ledger) == -(-steps // every)
            curve, projections, ledger = _reference_run(cfg, res.seed)
            np.testing.assert_array_equal(res.curve, curve)
            assert res.projection_count == projections
            for name in LEDGER_LISTS:
                assert getattr(res.ledger, name) == getattr(ledger, name), name

    @pytest.mark.parametrize(
        "cfg,bad_steps",
        [
            # seed 2 diverges in the second block, seed 4 in the third
            (_synthetic(**INSTRUMENTED, steps=200), {2: 70, 4: 130}),
            (_synthetic(**INSTRUMENTED, steps=200, regret_every=3), {2: 70, 4: 130}),
            # members reach the horizon at t = 28, 122, 145, 224 and 238
            (ExperimentConfig(task="binary_add", model="srnn", n_h=8, optimizer="wogd", eta=0.5,
                              window=10, horizon=12, cutoff=700, regret_every=3, **INSTRUMENTED),
             None),
        ],
        ids=["diverging", "diverging-every-3", "binary-add-every-3"],
    )
    def test_members_leaving_mid_block_match_run_single(self, cfg, bad_steps, monkeypatch):
        if bad_steps:
            monkeypatch.setattr(tasks, "synthetic_regression_stream", _exploding_targets(bad_steps))
        seeds = (1, 2, 3, 4, 5)
        try:
            got, diverged = run_batch(cfg, seeds), {}
        except DivergedSeedsError as exc:
            got, diverged = exc.results, exc.diverged
        assert sorted(diverged) == sorted(bad_steps or ())
        for seed, exc in diverged.items():
            want = _outcome(lambda: run_single(cfg, seed))
            assert (exc.timestep, exc.what) == (want.timestep, want.what)
            assert exc.timestep == bad_steps[seed]
        assert_same_runs(got, [run_single(cfg, res.seed) for res in got])
        if not bad_steps:
            assert len({res.steps for res in got}) == len(seeds)

    def test_instrumented_run_calls_every_traced_function(self, monkeypatch):
        # the benchmark's tracer times these by name, in every wogd module
        # that binds them; a layer whose functions go uncalled reads 0
        counts = dict.fromkeys(
            ["projected_gradient", "estimate_smoothness", "record_regret", "clip_singular_values"], 0
        )

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            analysis.RegretLedger, "record_regret",
            counting("record_regret", analysis.RegretLedger.record_regret),
        )
        for fn in (optim.projected_gradient, analysis.estimate_smoothness,
                   linalg.clip_singular_values):
            wrapped = counting(fn.__name__, fn)
            for name, module in list(sys.modules.items()):
                if name == "wogd" or name.startswith("wogd."):
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            monkeypatch.setattr(module, key, wrapped)
        run_batch(_synthetic(**INSTRUMENTED, steps=BLOCK + 1), (1, 2))
        assert all(counts.values()), counts
        # one call per block of sampled steps, none per step
        assert counts["projected_gradient"] == counts["record_regret"] == 2
        assert counts["estimate_smoothness"] == 2


def one_run(params):
    """params as the (1, ...) stacks of one run, keyed like param_blocks."""
    return {k: a[None] for k, a in models.param_blocks(params)}


def _reference_run(cfg, seed):
    """One synthetic-task run written out step by step on one-run (B = 1)
    stacks: the online loop that run_batch must reproduce bit for bit, for
    WOGD and for the first-order baselines. Returns the loss curve, the projection
    count and the ledger's lists (or None), computed per run: the
    projected gradient with one clip per matrix, np.sum per matrix, the
    running sum as (R + sq_theta) + sq_mu, np.linalg.norm ratios."""
    rng_init, rng_data = (
        np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(2)
    )
    xs, ds = tasks.synthetic_regression_stream(cfg.features, cfg.steps, rng_data, cfg.n_h)
    n_x = xs.shape[1]
    if cfg.model == "cwrnn":
        params = models.random_cwrnn(cfg.n_h, n_x, cfg.periods, cfg.init_std, rng_init)
    elif cfg.model == "lstm":
        params = models.random_lstm(cfg.n_h, n_x, cfg.init_std, rng_init)
    else:
        params = models.random_srnn(cfg.n_h, n_x, cfg.init_std, rng_init)
    wogd = cfg.optimizer == "wogd"
    wcfg = WogdConfig(
        eta=cfg.eta, lam=cfg.lam, alpha=cfg.alpha,
        out_lr_scale=cfg.out_lr_scale, out_radius=cfg.out_radius,
    )
    bcfg = None if wogd else BaselineConfig(kind=cfg.optimizer, learning_rate=cfg.learning_rate)
    moments = {}
    instrumented = cfg.record_regret or cfg.record_smoothness
    ledger = SimpleNamespace(**{name: [] for name in LEDGER_LISTS}) if instrumented else None
    h = np.zeros((1, cfg.n_h))
    c = h if cfg.model == "lstm" else None
    tape = ActivationTape(cfg.window, h, n_x, c)
    losses, projections = [], 0
    for t, (x, d) in enumerate(zip(xs, ds), start=1):
        blocks = one_run(params)
        h, gates = models.step_model(params, blocks, x[None], h, c, t)
        c = None if gates is None else gates.c_new
        pred = float(models.readout(h, params.theta_out, cfg.loss_kind)[0])
        tape.push(x, d, pred, h, gates)
        r = pred - d
        losses.append(r * r)
        if not wogd:
            grads, failed = instant_gradient(tape, blocks, params, cfg.loss_kind)
            assert failed == [None]
            new, failed = baseline_step(bcfg, blocks, grads, moments, t)
            assert failed == [None]
            params = dataclasses.replace(params, **{k: a[0] for k, a in new.items()})
            continue
        stacks, failed = tbptt_gradient(tape, blocks, params, cfg.loss_kind)
        assert failed == [None]
        grads = {k: g[0] for k, g in stacks.items()}
        sampled = instrumented and (t - 1) % cfg.regret_every == 0
        if sampled:
            sq = []
            for k in ("w", "u"):
                step = getattr(params, k) - wcfg.eta * grads[k]
                projected = (getattr(params, k) - clip_singular_values(step, wcfg.lam)) / wcfg.eta
                sq.append(float(np.sum(projected * projected)))
            total = (ledger.regret[-1] if ledger.regret else 0.0) + sq[0] + sq[1]
            ledger.grad_sq_theta.append(sq[0])
            ledger.grad_sq_mu.append(sq[1])
            ledger.regret.append(total)
            ledger.normalized.append(total / len(ledger.regret))
            ledger.beta_exp.append(None)
        new, clips, failed = wogd_step(wcfg, params, blocks, stacks, t)
        assert failed == [None]
        new = dataclasses.replace(params, **{k: a[0] for k, a in new.items()})
        projections += int(clips[0])
        if sampled and cfg.record_smoothness:
            probe = dataclasses.replace(new, theta_out=params.theta_out)
            after, failed = tbptt_gradient(tape, one_run(probe), probe, cfg.loss_kind)
            assert failed == [None]
            after = {k: g[0] for k, g in after.items()}
            ratios = []  # of the blocks that moved
            for k in ("w", "u"):
                moved = float(np.linalg.norm(getattr(probe, k) - getattr(params, k)))
                if moved != 0.0:
                    ratios.append(float(np.linalg.norm(after[k] - grads[k])) / moved)
            ledger.beta_exp[-1] = max(ratios, default=None)
        params = new
    return np.cumsum(losses) / np.arange(1, len(losses) + 1), projections, ledger


def serial_gradient_bound_violated(params, grads, lam):
    """The closed-form gradient ceiling of one run written out, as a
    reference: spectral_norm and np.linalg.norm per matrix."""
    if spectral_norm(params["w"]) > lam or spectral_norm(params["u"]) > lam:
        return False
    if np.linalg.norm(params["theta_out"]) > 1.0:
        return False
    n_h, n_x = params["u"].shape
    bound_w = 2.0 * math.sqrt(n_h) * math.sqrt(n_h) / (1.0 - lam)
    bound_u = 2.0 * math.sqrt(n_h) * math.sqrt(n_x) / (1.0 - lam)
    return bool(np.linalg.norm(grads["w"]) > bound_w + 1e-9
                or np.linalg.norm(grads["u"]) > bound_u + 1e-9)


def _violated(params, grads, finite, cfg):
    failed = [None if ok else "gradient" for ok in finite]
    try:
        harness._gradient_bound_check(params, grads, failed, cfg, 7)
    except AssertionError as exc:
        assert str(exc) == "gradient-norm ceiling violated at t=7"
        return True
    return False


class TestGradientBoundCheck:
    """The ceiling check over (B, ...) stacks decides for each member what the
    check of that run alone decides."""

    @settings(max_examples=150)
    @given(
        batch=st.integers(1, 6),
        n_h=st.integers(1, 8),
        n_x=st.integers(1, 6),
        lam=st.sampled_from([0.5, 0.9, 0.95]),
        poison=st.sampled_from([None, np.nan, np.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_serial_reference(self, batch, n_h, n_x, lam, poison, seed):
        rng = np.random.default_rng(seed)
        cfg = _synthetic(lam=lam)
        bounds = {"w": 2.0 * n_h / (1.0 - lam), "u": 2.0 * math.sqrt(n_h * n_x) / (1.0 - lam)}

        def scales():  # of a spectral, output or gradient norm: below, at and past its limit
            return rng.choice([0.5, 1.0, 1.0 + 1e-15, 2.0], batch)

        params, grads = {}, {}
        for k, shape in (("w", (n_h, n_h)), ("u", (n_h, n_x))):
            a = rng.normal(size=(batch,) + shape)
            g = rng.normal(size=(batch,) + shape)
            for b, (f, h) in enumerate(zip(scales(), scales())):
                a[b] *= f * lam / spectral_norm(a[b])
                g[b] *= h * (bounds[k] + 1e-9) / np.linalg.norm(g[b])
            params[k], grads[k] = a, g
        theta = rng.normal(size=(batch, n_h))
        params["theta_out"] = theta * (scales() / np.linalg.norm(theta, axis=1))[:, None]
        grads["theta_out"] = rng.normal(size=(batch, n_h))
        finite = np.ones(batch, dtype=bool)
        if poison is not None:
            b = int(rng.integers(batch))
            grads[("w", "u")[b % 2]][b].flat[0] = poison
            finite[b] = False

        want = [
            finite[b] and serial_gradient_bound_violated(
                {k: a[b] for k, a in params.items()}, {k: g[b] for k, g in grads.items()}, lam
            )
            for b in range(batch)
        ]
        assert _violated(params, grads, finite, cfg) == any(want)
        for b in range(batch):  # each member on its own
            assert _violated(params, grads, finite & (np.arange(batch) == b), cfg) == want[b]


class TestGridSearch:
    def test_single_point(self):
        cfg = fixture_cfg(steps=40)
        best, rows = grid_search(cfg, [0.05], tuning_seeds=(1,))
        assert best == 0.05
        assert rows[0][1] is not None

    def test_divergent_point_excluded(self):
        cfg = fixture_cfg(steps=60, model="srnn", optimizer="sgd", window=6)
        with np.errstate(all="ignore"):
            best, rows = grid_search(cfg, [0.01, 1e6], tuning_seeds=(1,))
        assert best == 0.01
        notes = {rate: note for rate, _, note in rows}
        assert "diverged" in notes[1e6]

    def test_two_point_ordering_cross_checked(self):
        cfg = fixture_cfg(steps=60)
        seeds = (1, 2)
        best, rows = grid_search(cfg, [0.02, 0.08], tuning_seeds=seeds)
        means = {}
        for rate in (0.02, 0.08):
            candidate = dataclasses.replace(cfg, eta=rate)
            means[rate] = float(np.mean([run_single(candidate, s).mse for s in seeds]))
        assert best == min(means, key=lambda r: (means[r], r))
        by_rate = {rate: mse for rate, mse, _ in rows}
        for rate in means:
            assert by_rate[rate] == pytest.approx(means[rate], rel=1e-12)

    @pytest.mark.parametrize(
        "grid, seeds, problem",
        [
            ([0.05, -0.1], (1,), "eta must be positive, got -0.1"),
            ([0.05], (1, 1), "seeds must be distinct"),
            ([0.05, 0.1], (), "tuning seed list is empty"),
            ([0.05], (2, -1), "seeds must be >= 0"),
        ],
        ids=["negative-eta", "repeated-seeds", "no-seeds", "negative-seed"],
    )
    def test_every_candidate_validated_before_any_run(self, grid, seeds, problem, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "_run_seeds", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match=f"^{re.escape(problem)}$"):
            grid_search(fixture_cfg(steps=40), grid, tuning_seeds=seeds)
        assert calls == []

    def test_all_divergent_raises(self):
        cfg = fixture_cfg(steps=40, optimizer="sgd", window=6)
        with np.errstate(all="ignore"), pytest.raises(GridSearchError):
            grid_search(cfg, [1e7, 1e8], tuning_seeds=(1,))


class TestAggregateAndEmit:
    def test_single_run_aggregate(self):
        cfg = fixture_cfg(steps=40)
        res = run_single(cfg, 1)
        summary = aggregate([res])
        assert summary.rows[0].mse_mean == pytest.approx(res.mse)
        assert summary.rows[0].n_runs == 1

    def test_mean_of_two(self):
        cfg = fixture_cfg(steps=40)
        rs = [run_single(cfg, s) for s in (1, 2)]
        summary = aggregate(rs)
        assert summary.rows[0].mse_mean == pytest.approx((rs[0].mse + rs[1].mse) / 2)
        assert summary.rows[0].mse_min == pytest.approx(min(r.mse for r in rs))
        assert summary.rows[0].mse_max == pytest.approx(max(r.mse for r in rs))

    def test_aggregate_matches_recompute_from_runs(self):
        # thirty-run aggregate equals a naive recomputation over the runs
        cfg = fixture_cfg(steps=30)
        rs = run_many(cfg, seeds=range(1, 31))
        summary = aggregate(rs)
        assert summary.rows[0].mse_mean == pytest.approx(
            float(np.mean([r.mse for r in rs])), rel=1e-12
        )
        np.testing.assert_allclose(
            summary.curves[cfg.label], np.mean([r.curve for r in rs], axis=0), atol=1e-12
        )

    def test_emit_files_and_roundtrip(self, tmp_path):
        cfg = fixture_cfg(steps=40, record_regret=True, record_smoothness=True)
        rs = run_many(cfg, seeds=(1, 2))
        summary = aggregate(rs)
        files = emit_outputs(summary, tmp_path, config_mapping={"schema_version": "1"})
        assert set(files) == {"summary.csv", "curves.csv", "regret.csv", "smoothness.csv", "manifest.json"}
        curves = np.genfromtxt(tmp_path / "curves.csv", delimiter=",", names=True)
        assert curves.shape[0] == 40
        col = curves[curves.dtype.names[1]]
        np.testing.assert_allclose(col, summary.curves[cfg.label], atol=1e-12)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seeds"][cfg.label] == [1, 2]
        assert manifest["omitted"] == []

    def test_regret_omitted_when_uninstrumented(self, tmp_path):
        cfg = fixture_cfg(steps=30)
        summary = aggregate(run_many(cfg, seeds=(1,)))
        files = emit_outputs(summary, tmp_path)
        assert "regret.csv" not in files
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "regret.csv" in manifest["omitted"]

    def test_emission_deterministic_outside_runtime(self, tmp_path):
        cfg = fixture_cfg(steps=40, record_regret=True)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        emit_outputs(aggregate(run_many(cfg, seeds=(1, 2))), out1)
        emit_outputs(aggregate(run_many(cfg, seeds=(1, 2))), out2)
        for name in ("curves.csv", "regret.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # summary.csv is identical except the wall-clock column
        rows1 = (out1 / "summary.csv").read_text().splitlines()
        rows2 = (out2 / "summary.csv").read_text().splitlines()
        header = rows1[0].split(",")
        t_col = header.index("mean_runtime_s")
        for a, b in zip(rows1, rows2):
            cells_a = [c for i, c in enumerate(a.split(",")) if i != t_col]
            cells_b = [c for i, c in enumerate(b.split(",")) if i != t_col]
            assert cells_a == cells_b

    def test_sampled_rows_carry_their_timestep(self, tmp_path):
        # regret_every = 3 over 10 steps samples steps 1, 4, 7 and 10
        raw = parse_config_text((ROOT / "configs" / "synthetic_regret.cfg").read_text())
        raw.update(steps="10", regret_every="3")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--seeds", "1", "--out", str(out)]) == 0
        for name in ("regret.csv", "smoothness.csv"):
            rows = (out / name).read_text().splitlines()
            assert rows[0].startswith("t,")
            assert [row.split(",")[0] for row in rows[1:]] == ["1", "4", "7", "10"], name

    def test_aggregate_refuses_mixed_strides(self):
        # one t column cannot label ledgers sampled at different strides
        runs = [run_single(_synthetic(steps=10, record_regret=True, regret_every=k), 1)
                for k in (1, 3)]
        assert [r.ledger.every for r in runs] == [1, 3]
        with pytest.raises(ValueError, match="different strides"):
            aggregate(runs)

    def test_parallel_workers_match_serial(self):
        cfg = fixture_cfg(steps=30)
        serial = run_many(cfg, seeds=(1, 2), workers=1)
        parallel = run_many(cfg, seeds=(1, 2), workers=2)
        for a, b in zip(serial, parallel):
            assert a.seed == b.seed
            np.testing.assert_array_equal(a.curve, b.curve)


class TestCli:
    def test_verify_runs_the_configured_suites(self, monkeypatch, tmp_path, capsys):
        # the commands are recorded, not run: no pytest inside pytest
        calls = []

        def run(cmd, check):
            calls.append(cmd)
            return SimpleNamespace(returncode=5)

        monkeypatch.setattr(cli.subprocess, "run", run)
        monkeypatch.chdir(ROOT)
        assert cli_main(["verify"]) == 5
        assert cli_main(["verify", "tests/test_linalg.py", "-q"]) == 5
        assert cli_main(["verify", "--", "-k", "digests"]) == 5
        pytest_cmd = [sys.executable, "-m", "pytest"]
        # no path: pyproject.toml's testpaths decide, perfbench/tests included
        assert calls == [
            pytest_cmd + ["-v"], pytest_cmd + ["tests/test_linalg.py", "-q"],
            pytest_cmd + ["-k", "digests"],
        ]
        monkeypatch.chdir(tmp_path)  # no tests/ here
        assert cli_main(["verify"]) == 2
        assert "no tests/ directory" in capsys.readouterr().err
        assert len(calls) == 3

    def test_run_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(CONFIG_TEXT.replace("out_dir = results", f"out_dir = {tmp_path}/out"))
        code = cli_main(["run", "--config", str(cfg_path), "--seeds", "2,3"])
        assert code == 0
        assert (tmp_path / "out" / "summary.csv").exists()
        assert "srnn-wogd(w=10)" in capsys.readouterr().out
        # the manifest records the mapping that ran: --seeds replaces the file's seeds
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["seeds"] == "2,3"
        assert manifest["seeds"] == {"srnn-wogd(w=10)": [2, 3]}

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["run", "--seeds", "1,1"], "seeds must be distinct"),
            (["run", "--seeds", "1,x"], "bad value for 'seeds': '1,x'"),
            (["grid", "--lr-grid=-0.1,0.05"], "eta must be positive, got -0.1"),
            (["grid", "--lr-grid", "0.05", "--seeds", "1,1"], "seeds must be distinct"),
            # a blank list neither falls back to the default seeds nor trains nothing
            (["run", "--seeds", " "], "seeds lists no seed: ' '"),
            (["run", "--seeds", ""], "seeds lists no seed: ''"),
            (["grid", "--lr-grid", "0.05,0.1", "--seeds", " "], "seeds lists no seed: ' '"),
            (["run", "--seeds=-1"], "seeds must be >= 0"),
            (["grid", "--lr-grid", "0.03", "--seeds=-2,1"], "seeds must be >= 0"),
        ],
        ids=["run-repeated-seeds", "run-bad-seed", "grid-negative-eta", "grid-repeated-seeds",
             "run-blank-seeds", "run-empty-seeds", "grid-blank-seeds", "run-negative-seed",
             "grid-negative-seed"],
    )
    def test_overrides_validated_like_the_file(self, argv, problem, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(CONFIG_TEXT.replace("out_dir = results", f"out_dir = {tmp_path}/out"))
        assert cli_main([argv[0], "--config", str(cfg_path), *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert err == f"error[config]: {problem}\n"
        assert "rate=" not in out  # nothing was trained
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("schema_version = 1\ntask = csv\n")
        assert cli_main(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_bad_worker_count_exit_code(self, workers, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(CONFIG_TEXT.replace("out_dir = results", f"out_dir = {tmp_path}/out"))
        assert cli_main(["run", "--config", str(cfg_path), "--workers", workers]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "rows, extra, problem",
        [
            (None, "target_column = 10", "target column 10 out of range for 4 columns"),
            ("1,2,3,4\n", "", "need at least 2 records to fit scaling"),
        ],
        ids=["target-column-out-of-range", "one-record"],
    )
    def test_csv_that_does_not_fit_exit_code(self, rows, extra, problem, tmp_path, capsys):
        # the stream is built before the first step
        text = CONFIG_TEXT.replace("out_dir = results", f"out_dir = {tmp_path}/out")
        if rows is not None:
            (tmp_path / "one.csv").write_text(rows)
            text = text.replace(FIXTURE, str(tmp_path / "one.csv"))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"{text}{extra}\n")
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error[config]: {problem}\n"
        assert not (tmp_path / "out").exists()

    def test_data_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(CONFIG_TEXT.replace(FIXTURE, str(tmp_path / "missing.csv")))
        assert cli_main(["run", "--config", str(cfg_path)]) == 3

    def test_grid_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(CONFIG_TEXT)
        code = cli_main(["grid", "--config", str(cfg_path), "--lr-grid", "0.05",
                         "--seeds", "1"])
        assert code == 0
        assert "best=0.05" in capsys.readouterr().out

    def test_divergence_exit_code_same_across_workers(self, tmp_path, capsys):
        # The worker's NumericOverflowError must cross the process pool with
        # its message and timestep intact.
        cfg_path = tmp_path / "div.cfg"
        cfg_path.write_text(
            "schema_version = 1\ntask = synthetic\nfeatures = 3\nsteps = 60\n"
            "model = srnn\nn_h = 4\noptimizer = sgd\nlearning_rate = 1e6\n"
            f"window = 6\nseeds = 1,2\nout_dir = {tmp_path}/out\n"
        )
        lines = {}
        for workers in (1, 2):
            with np.errstate(all="ignore"):
                code = cli_main(["run", "--config", str(cfg_path), "--workers", str(workers)])
            assert code == 4
            lines[workers] = capsys.readouterr().err.strip()
        assert lines[1].startswith("error[numeric]: non-finite gradient block 'w' at timestep")
        assert lines[2] == lines[1]

    def test_divergence_prints_no_numpy_warnings(self, tmp_path, capsys):
        # The error line carries the timestep; numpy's overflow/invalid
        # warnings from the diverging arithmetic are noise.
        cfg_path = tmp_path / "div.cfg"
        cfg_path.write_text(
            "schema_version = 1\ntask = synthetic\nfeatures = 3\nsteps = 60\n"
            "model = srnn\nn_h = 4\noptimizer = sgd\nlearning_rate = 1e6\n"
            f"window = 6\nseeds = 1,2\nout_dir = {tmp_path}/out\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["run", "--config", str(cfg_path), "--workers", "1"])
        assert code == 4
        assert capsys.readouterr().err.strip() == (
            "error[numeric]: non-finite gradient block 'w' at timestep 25"
        )
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_divergence_keeps_finished_seeds(self, workers, tmp_path, capsys):
        # seed 1 finishes, seed 2 diverges at t = 110
        cfg_path = tmp_path / "div.cfg"
        cfg_path.write_text(
            "schema_version = 1\ntask = synthetic\nsteps = 200\nmodel = srnn\nn_h = 10\n"
            "optimizer = sgd\nlearning_rate = 3.0\nwindow = 10\nseeds = 1,2\n"
            f"out_dir = {tmp_path}/out\n"
        )
        code = cli_main(["run", "--config", str(cfg_path), "--workers", str(workers)])
        assert code == 4
        assert capsys.readouterr().err.strip() == (
            "error[numeric]: non-finite gradient block 'w' at timestep 110"
        )
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seeds"] == {"srnn-sgd": [1]}
        assert manifest["diverged"] == {"2": {"timestep": 110, "what": "gradient block 'w'"}}
        curves = np.genfromtxt(tmp_path / "out" / "curves.csv", delimiter=",", names=True)
        finished = run_single(load_config(cfg_path), 1)
        np.testing.assert_array_equal(curves[curves.dtype.names[1]], finished.curve)

    def test_batched_divergence_keeps_finished_seeds(self, monkeypatch):
        monkeypatch.setattr(tasks, "synthetic_regression_stream", _exploding_targets({2: 30, 4: 10}))
        cfg = _synthetic()
        with pytest.raises(DivergedSeedsError) as caught:
            run_many(cfg, (1, 2, 3, 4, 5))
        err = caught.value
        # the first diverged seed in seed order, not in time
        assert (err.timestep, str(err)) == (30, "non-finite gradient block 'w' at timestep 30")
        assert [(s, e.timestep) for s, e in err.diverged.items()] == [(2, 30), (4, 10)]
        assert_same_runs(err.results, [run_single(cfg, s) for s in (1, 3, 5)])
        copy = pickle.loads(pickle.dumps(err))
        assert (copy.timestep, str(copy), list(copy.diverged)) == (30, str(err), [2, 4])
        assert_same_runs(copy.results, err.results)

    def test_every_seed_diverged_writes_nothing(self, tmp_path, capsys):
        cfg_path = tmp_path / "div.cfg"
        cfg_path.write_text(
            "schema_version = 1\ntask = synthetic\nfeatures = 3\nsteps = 60\n"
            "model = srnn\nn_h = 4\noptimizer = sgd\nlearning_rate = 1e6\n"
            f"window = 6\nseeds = 1,2\nout_dir = {tmp_path}/out\n"
        )
        assert cli_main(["run", "--config", str(cfg_path)]) == 4
        assert capsys.readouterr().err.startswith("error[numeric]: ")
        assert not (tmp_path / "out").exists()

    def test_overflowing_loss_is_a_divergence(self, tmp_path, capsys):
        # seed 3's squared loss overflows to inf at t = 131 while its
        # gradients and updates stay finite
        text = (
            "schema_version = 1\ntask = synthetic\nfeatures = 3\nsteps = 400\nmodel = srnn\n"
            "n_h = 10\noptimizer = wogd\neta = 1e6\nwindow = 50\nalpha = 1e9\n"
            f"out_lr_scale = 1e12\nout_radius = 1e300\nseeds = 3\nout_dir = {tmp_path}/out\n"
        )
        cfg_path = tmp_path / "overflow.cfg"
        cfg_path.write_text(text)
        cfg = load_config(cfg_path)
        with pytest.raises(NumericOverflowError) as alone:
            run_single(cfg, 3)
        assert (alone.value.timestep, alone.value.what) == (131, "loss")
        with pytest.raises(DivergedSeedsError) as batched:
            run_batch(cfg, (1, 2, 3))
        assert batched.value.results == []
        assert (batched.value.diverged[3].timestep, batched.value.diverged[3].what) == (131, "loss")
        assert cli_main(["run", "--config", str(cfg_path)]) == 4
        assert capsys.readouterr().err.strip() == "error[numeric]: non-finite loss at timestep 131"

    def test_lapack_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        calls = []

        def failing_svd(*args, **kwargs):
            calls.append(args)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("wogd.linalg.np.linalg.svd", failing_svd)
        cfg_path = tmp_path / "exp.cfg"
        # lambda below the initial weights' Frobenius norm: the regret's
        # spectral clip cannot take its no-SVD exit
        cfg_path.write_text(
            CONFIG_TEXT.replace("out_dir = results", f"out_dir = {tmp_path}/out")
            .replace("seeds = 1,2", "seeds = 1")
            .replace("lambda = 0.9", "lambda = 0.05")
            + "steps = 20\nrecord_regret = true\n"
        )
        assert cli_main(["run", "--config", str(cfg_path)]) == 4
        assert capsys.readouterr().err.strip() == "error[numeric]: SVD did not converge"
        assert calls
