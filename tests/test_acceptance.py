"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL/SKIP
lines as they happen. The benchmark-reproduction criterion needs the
third-party CSVs described in data/README.md and reports SKIP without them.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from wogd.analysis import regret_bound, smoothness_bounds
from wogd.gradients import ActivationTape, fd_gradient, tbptt_gradient
from wogd.harness import ExperimentConfig, run_many, run_single
from wogd.linalg import clip_singular_values, project_l2_ball, spectral_norm
from wogd.models import (
    LstmParams,
    SrnnParams,
    param_blocks,
    random_cwrnn,
    random_lstm,
    random_srnn,
    readout,
    step_model,
)
from wogd.tasks import LOSS_CROSS_ENTROPY, LOSS_SQUARED

DATA_DIR = Path("data")
BENCHMARKS = {
    # dataset -> (n_h, eta, reference mean squared error at w=200)
    "puma8nh": (10, 0.03, 0.408),
    "puma32fm": (10, 0.08, 0.053),
    "kinematics": (15, 0.075, 0.263),
    "elevators": (15, 0.04, 0.158),
}


def report(num: int, status: str, detail: str) -> None:
    print(f"[criterion {num}] {status}: {detail}")


def _cwrnn_periods(n_h: int) -> tuple[int, ...]:
    return {1: (1,), 3: (1, 2, 4), 8: (1, 2, 4, 8)}[n_h]


def _random_model(arch: str, n_h: int, n_x: int, rng):
    if arch == "srnn":
        return random_srnn(n_h, n_x, 0.4, rng)
    if arch == "lstm":
        return random_lstm(n_h, n_x, 0.4, rng)
    return random_cwrnn(n_h, n_x, _cwrnn_periods(n_h), 0.4, rng)


def _fill_tape(params, steps, capacity, rng, loss_kind):
    """A one-run tape of `steps` online steps at B = 1 over random data."""
    blocks = {name: a[None] for name, a in param_blocks(params)}
    h = np.zeros((1, params.n_h))
    c = h if isinstance(params, LstmParams) else None
    tape = ActivationTape(capacity, h, params.n_x, c)
    for t in range(1, steps + 1):
        x = rng.uniform(-1.0, 1.0, (1, params.n_x))
        d = rng.uniform(-1.0, 1.0) if loss_kind == LOSS_SQUARED else float(rng.integers(0, 2))
        h, gates = step_model(params, blocks, x, h, c, t)
        c = None if gates is None else gates.c_new
        pred = readout(h, params.theta_out, loss_kind)
        tape.push(x, d, pred, h, gates)
    return tape, blocks


def test_criterion_1_gradient_correctness():
    """Replay gradients match central finite differences to 1e-5 relative."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    sizes = [1, 3, 8]
    worst = 0.0
    checked = 0
    for arch in ("srnn", "lstm", "cwrnn"):
        for loss_kind in (LOSS_SQUARED, LOSS_CROSS_ENTROPY):
            for w in (1, 5, 20):
                for i in range(100):
                    n_h = sizes[i % len(sizes)]
                    params = _random_model(arch, n_h, 2, rng)
                    steps = w + int(rng.integers(0, 3))
                    tape, blocks = _fill_tape(params, steps, w, rng, loss_kind)
                    stacks, failed = tbptt_gradient(tape, blocks, params, loss_kind)
                    assert failed == [None]
                    grads = {name: g[0] for name, g in stacks.items()}
                    oracle = fd_gradient(tape, params, 1e-5, loss_kind)
                    # relative error of the full gradient triple
                    scale = max(
                        max(float(np.abs(g).max()) for g in oracle.values()), 1e-6
                    )
                    diff = max(
                        float(np.abs(grads[k] - oracle[k]).max()) for k in grads
                    )
                    worst = max(worst, diff / scale)
                    checked += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5
    report(1, "PASS" if ok else "FAIL",
           f"max relative error {worst:.2e} over {checked} instances ({elapsed:.0f}s)")
    assert ok


def test_criterion_2_state_perturbation_inequality():
    """Hidden-state distance under weight perturbation respects the
    contraction bound on 200 random pairs at three spectral radii."""
    rng = np.random.default_rng(202)
    n_h, n_x, length = 6, 4, 50
    violations = 0
    trials = 0
    for lam in (0.5, 0.9, 0.95):
        for _ in range(67):
            trials += 1

            def constrained(shape):
                m = rng.normal(size=shape)
                return m * (lam * rng.uniform(0.3, 1.0) / spectral_norm(m))

            w1, w2 = constrained((n_h, n_h)), constrained((n_h, n_h))
            u1, u2 = constrained((n_h, n_x)), constrained((n_h, n_x))
            bound = (
                math.sqrt(n_h) * np.linalg.norm(w1 - w2)
                + math.sqrt(n_x) * np.linalg.norm(u1 - u2)
            ) / (1.0 - lam)
            # the two weight sets as the two members of one online step
            family = SrnnParams(w=w1, u=u1, theta_out=np.zeros(n_h))
            pair = {"w": np.stack([w1, w2]), "u": np.stack([u1, u2])}
            h = np.zeros((2, n_h))
            for t in range(1, length + 1):
                x = rng.uniform(-1.0, 1.0, (1, n_x))
                h, _ = step_model(family, pair, x, h, None, t)
                if np.linalg.norm(h[0] - h[1]) > bound:
                    violations += 1
                    break
    report(2, "PASS" if violations == 0 else "FAIL",
           f"{violations} violations over {trials} weight-pair trials")
    assert violations == 0


def test_criterion_3_smoothness_ceiling():
    """Empirical curvature stays below the closed-form bounds per block, with
    at least 10^3x slack at the maximum."""
    cfg = ExperimentConfig(
        task="synthetic", features=3, steps=800, model="srnn", n_h=10,
        optimizer="wogd", eta=0.03, window=50, lam=0.95, alpha=7.5,
        out_lr_scale=8.0, out_radius=2.5,
        record_regret=True, record_smoothness=True,
    )
    res = run_single(cfg, seed=11)
    led = res.ledger
    n_x = cfg.features + 1
    sb = smoothness_bounds(cfg.n_h, n_x, cfg.lam)
    samples = [e for e in led.smoothness if e is not None]
    theta_vals = np.array([e.beta_theta for e in samples if e.beta_theta is not None])
    mu_vals = np.array([e.beta_mu for e in samples if e.beta_mu is not None])
    overall = np.array([b for b in led.beta_exp if b is not None])
    assert theta_vals.size > 0 and mu_vals.size > 0
    ok_theta = bool(np.all(theta_vals <= sb.beta_theta))
    ok_mu = bool(np.all(mu_vals <= sb.beta_mu))
    slack = sb.beta / float(overall.max())
    ok_slack = slack >= 1e3
    status = "PASS" if (ok_theta and ok_mu and ok_slack) else "FAIL"
    report(3, status,
           f"max beta_theta {theta_vals.max():.3g} <= {sb.beta_theta:.3g}: {ok_theta}; "
           f"max beta_mu {mu_vals.max():.3g} <= {sb.beta_mu:.3g}: {ok_mu}; "
           f"bound/empirical = {slack:.1e} (>= 1e3: {ok_slack})")
    assert ok_theta and ok_mu and ok_slack


def test_criterion_4_regret_within_bound():
    """Tiny-scale run at the theory's learning rate: recorded local regret
    must sit below the closed-form ceiling with zero tolerance."""
    n_h = 2
    lam = 0.5
    n_x = 2
    beta = smoothness_bounds(n_h, n_x, lam).beta
    assert beta == pytest.approx(4 * 2 * math.sqrt(2) / 0.125, rel=1e-12)
    eta = 1.0 / beta
    cfg = ExperimentConfig(
        task="synthetic", features=1, steps=500, model="srnn", n_h=n_h,
        optimizer="wogd", eta=eta, window=50, lam=lam,
        alpha=0.0,  # project every step: the exact update rule the bound covers
        out_lr_scale=1.0, out_radius=1.0,
        record_regret=True,
    )
    res = run_single(cfg, seed=21)
    recorded = res.ledger.regret[-1]
    bound = regret_bound(eta, cfg.window, res.steps, n_h)
    ok = recorded <= bound
    report(4, "PASS" if ok else "FAIL",
           f"R(T) = {recorded:.4f} <= bound {bound:.1f} at eta = 1/beta = {eta:.5f}")
    assert ok


def test_criterion_5_normalized_regret_trend():
    """Normalized regret falls over the run and larger windows end lower,
    by majority vote over 5 seeds."""
    seeds = (1, 2, 3, 4, 5)
    windows = (50, 100, 200)
    finals: dict[int, dict[int, float]] = {seed: {} for seed in seeds}
    trend_ok = {seed: True for seed in seeds}
    for w in windows:
        cfg = ExperimentConfig(
            task="synthetic", features=3, steps=1500, model="srnn", n_h=5,
            optimizer="wogd", eta=0.05, window=w, lam=0.95, alpha=7.5,
            out_lr_scale=8.0, out_radius=2.5, record_regret=True,
        )
        for seed, res in zip(seeds, run_many(cfg, seeds)):
            norm = np.asarray(res.ledger.normalized)
            q = norm.shape[0] // 4
            if not norm[-q:].mean() < norm[:q].mean():
                trend_ok[seed] = False
            finals[seed][w] = float(norm[-1])
    votes_trend = sum(trend_ok.values())
    votes_order = sum(f[200] < f[100] < f[50] for f in finals.values())
    ok = votes_trend >= 3 and votes_order >= 3
    report(5, "PASS" if ok else "FAIL",
           f"trend votes {votes_trend}/5, window-ordering votes {votes_order}/5; "
           f"final normalized regret (seed 1): "
           + ", ".join(f"w={w}: {finals[1][w]:.2e}" for w in windows))
    assert ok


def test_criterion_6_benchmark_reproduction():
    """Mean MSE at w=200 within 15% of the published reference values, and
    monotone improvement with window size. Skipped without the datasets."""
    available = {
        name: DATA_DIR / f"{name}.csv"
        for name in BENCHMARKS
        if (DATA_DIR / f"{name}.csv").exists()
    }
    if not available:
        report(6, "SKIP", f"no benchmark CSVs under {DATA_DIR}/ (see data/README.md)")
        pytest.skip("benchmark datasets not supplied")
    failures = []
    for name, path in available.items():
        n_h, eta, reference = BENCHMARKS[name]
        means = {}
        for w in (50, 100, 200):
            cfg = ExperimentConfig(
                task="csv", dataset=str(path), model="srnn", n_h=n_h,
                optimizer="wogd", eta=eta, window=w, lam=0.95, alpha=7.5,
                out_lr_scale=8.0, out_radius=2.5,
            )
            means[w] = float(np.mean([r.mse for r in run_many(cfg, range(1, 31))]))
        within = abs(means[200] - reference) <= 0.15 * reference
        ordered = means[200] < means[100] < means[50]
        if not (within and ordered):
            failures.append(f"{name}: means {means}, reference {reference}")
        report(6, "PASS" if within and ordered else "FAIL",
               f"{name}: mse(w=200) = {means[200]:.3f} vs reference {reference} "
               f"(within 15%: {within}); ordering 200<100<50: {ordered}")
    assert not failures, "; ".join(failures)


def _binary_config(n: int, eta: float, n_h: int, cutoff: int) -> ExperimentConfig:
    return ExperimentConfig(
        task="binary_add", n_sequences=n, horizon=1000, cutoff=cutoff,
        model="srnn", n_h=n_h, optimizer="wogd", eta=eta, window=200,
        lam=0.95, alpha=7.5, out_lr_scale=8.0, out_radius=2.5,
    )


def test_criterion_7a_binary_addition_two_streams():
    """Sustainable prediction within 10^4 steps on at least 4 of 5 seeds."""
    seeds = (1, 2, 3, 4, 5)
    cfg = _binary_config(2, eta=0.05, n_h=32, cutoff=10_000)
    results = run_many(cfg, seeds)
    reached = {res.seed: res.sustainable_t for res in results}
    projections = {res.seed: res.projection_count for res in results}
    hits = sum(1 for v in reached.values() if v is not None)
    ok = hits >= 4
    report(7, "PASS" if ok else "FAIL",
           f"two-stream addition: sustainable on {hits}/5 seeds at {reached}; "
           f"spectral projections {projections}")
    assert ok


def test_criterion_7b_binary_addition_three_streams():
    """Sustainable prediction before the 5x10^4 cutoff on at least 3 of 5 seeds."""
    seeds = (1, 2, 3, 4, 5)
    cfg = _binary_config(3, eta=0.05, n_h=32, cutoff=50_000)
    results = run_many(cfg, seeds)
    reached = {res.seed: res.sustainable_t for res in results}
    projections = {res.seed: res.projection_count for res in results}
    hits = sum(1 for v in reached.values() if v is not None)
    ok = hits >= 3
    report(7, "PASS" if ok else "FAIL",
           f"three-stream addition: sustainable on {hits}/5 seeds at {reached}; "
           f"spectral projections {projections}")
    assert ok


def test_criterion_8_projection_properties():
    """Idempotence and nearest-point properties of both projections on 1000
    random cases each."""
    rng = np.random.default_rng(808)
    lam = 0.9
    worst_idem = 0.0
    for _ in range(1000):
        m = rng.normal(0.0, 1.0, (int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        clipped = clip_singular_values(m, lam)
        assert spectral_norm(clipped) <= lam + 1e-9
        worst_idem = max(
            worst_idem,
            float(np.abs(clip_singular_values(clipped, lam) - clipped).max()),
        )
    nearest_ok = True
    for _ in range(25):
        m = rng.normal(0.0, 1.0, (4, 4))
        clipped = clip_singular_values(m, lam)
        d_clip = np.linalg.norm(m - clipped)
        for _ in range(100):
            x = rng.normal(0.0, 1.0, (4, 4))
            norm = spectral_norm(x)
            if norm > lam:
                x *= lam * rng.uniform(0.1, 1.0) / norm
            if np.linalg.norm(m - x) < d_clip - 1e-9:
                nearest_ok = False
    ball_ok = True
    for _ in range(1000):
        v = rng.normal(0.0, 1.5, int(rng.integers(1, 10)))
        radius = float(rng.uniform(0.2, 2.0))
        proj = project_l2_ball(v, radius)
        if np.linalg.norm(proj) > radius + 1e-12:
            ball_ok = False
        if np.abs(project_l2_ball(proj, radius) - proj).max() > 1e-12:
            ball_ok = False
        # any feasible point is at least as far from v
        x = rng.normal(0.0, 1.0, v.shape[0])
        x *= radius * rng.uniform(0.0, 1.0) / max(np.linalg.norm(x), 1e-12)
        if np.linalg.norm(v - x) < np.linalg.norm(v - proj) - 1e-9:
            ball_ok = False
    ok = worst_idem <= 1e-10 and nearest_ok and ball_ok
    report(8, "PASS" if ok else "FAIL",
           f"clip idempotence {worst_idem:.1e} (<= 1e-10), nearest-point {nearest_ok}, "
           f"ball projection {ball_ok}")
    assert ok


def test_criterion_9_runtime_ordering():
    """The windowed Elman method trains faster per run than LSTM-Adam at
    equal hidden size and equal backprop depth."""
    seeds = (1, 2, 3, 4, 5)
    steps = 600
    wogd_cfg = ExperimentConfig(
        task="synthetic", features=3, steps=steps, model="srnn", n_h=10,
        optimizer="wogd", eta=0.03, window=200, lam=0.95, alpha=7.5,
        out_lr_scale=8.0, out_radius=2.5,
    )
    lstm_cfg = ExperimentConfig(
        task="synthetic", features=3, steps=steps, model="lstm", n_h=10,
        optimizer="adam", learning_rate=0.01, window=200,
    )
    wogd_runs = [run_single(wogd_cfg, s) for s in seeds]
    lstm_runs = [run_single(lstm_cfg, s) for s in seeds]
    t_wogd = float(np.mean([r.runtime_s for r in wogd_runs]))
    t_lstm = float(np.mean([r.runtime_s for r in lstm_runs]))
    ok = t_wogd < t_lstm
    # the paper's headline pairs the time ratio with the error each method reaches
    report(9, "PASS" if ok else "FAIL",
           f"mean wall-clock over 5 seeds: srnn-wogd(w=200) {t_wogd:.2f}s "
           f"vs lstm-adam {t_lstm:.2f}s (t_lstm / t_wogd = {t_lstm / t_wogd:.1f}); "
           f"mean mse {np.mean([r.mse for r in wogd_runs]):.4g} "
           f"vs {np.mean([r.mse for r in lstm_runs]):.4g}")
    assert ok
