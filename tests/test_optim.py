"""Optimizer updates, projections, and the regret-defining projected gradient."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wogd.linalg import clip_singular_values, spectral_norm
from wogd.models import (
    CwrnnParams,
    SrnnParams,
    param_blocks,
    random_cwrnn,
    random_lstm,
    random_srnn,
)
from wogd.optim import (
    BaselineConfig,
    WogdConfig,
    baseline_step,
    projected_gradient,
    wogd_step,
)


def srnn_grads(rng, n_h=3, n_x=2, scale=1.0):
    return {
        "w": scale * rng.normal(size=(n_h, n_h)),
        "u": scale * rng.normal(size=(n_h, n_x)),
        "theta_out": scale * rng.normal(size=n_h),
    }


def zero_grads(p):
    return {name: np.zeros_like(arr) for name, arr in param_blocks(p)}


def one_run_step(cfg, p, g, t, moments=None):
    """baseline_step on the one-run stacks of p and g (B = 1)."""
    new, failed = baseline_step(
        cfg, {name: arr[None] for name, arr in param_blocks(p)},
        {name: arr[None] for name, arr in g.items()},
        {} if moments is None else moments, t,
    )
    assert failed == [None]
    return dataclasses.replace(p, **{name: arr[0] for name, arr in new.items()})


def stacks(p, g):
    """The one-run (B = 1) stacks of params p and grads g."""
    return {name: arr[None] for name, arr in param_blocks(p)}, {k: a[None] for k, a in g.items()}


def one_wogd_step(cfg, p, g, t):
    """wogd_step on the one-run stacks of p and g (B = 1): the new params,
    the clip count and the failure (or None)."""
    new, clips, failed = wogd_step(cfg, p, *stacks(p, g), t)
    new = {name: arr[0] for name, arr in new.items()}
    return dataclasses.replace(p, **new), int(clips[0]), failed[0]


def one_projected_gradient(p, g, cfg):
    """projected_gradient on the one-run stacks of p and g (B = 1)."""
    return {name: arr[0] for name, arr in projected_gradient(*stacks(p, g), cfg).items()}


class TestWogdStep:
    def test_zero_gradient_is_fixed_point(self):
        rng = np.random.default_rng(0)
        p = random_srnn(3, 2, 0.1, rng)
        cfg = WogdConfig(eta=0.05)
        q, triggered, _ = one_wogd_step(cfg, p, zero_grads(p), t=1)
        assert triggered == 0
        np.testing.assert_array_equal(q.w, p.w)
        np.testing.assert_array_equal(q.u, p.u)
        np.testing.assert_array_equal(q.theta_out, p.theta_out)

    def test_matches_plain_sgd_when_unconstrained(self):
        # Huge alpha and radius: wogd degrades to gradient descent with the
        # 1/sqrt(t) output schedule; hidden blocks match baseline SGD exactly.
        rng = np.random.default_rng(1)
        p = random_srnn(3, 2, 0.1, rng)
        g = srnn_grads(rng)
        eta = 0.03
        cfg = WogdConfig(eta=eta, alpha=1e9, out_radius=1e9, out_lr_scale=1.0)
        q, triggered, _ = one_wogd_step(cfg, p, g, t=4)
        assert triggered == 0
        sgd = BaselineConfig(kind="sgd", learning_rate=eta)
        ref = one_run_step(sgd, p, g, t=4)
        np.testing.assert_allclose(q.w, ref.w, atol=1e-12)
        np.testing.assert_allclose(q.u, ref.u, atol=1e-12)
        np.testing.assert_allclose(q.theta_out, p.theta_out - (1.0 / 2.0) * g["theta_out"], atol=1e-12)

    def test_projection_trigger_clips_spectral_norm(self):
        rng = np.random.default_rng(2)
        p = random_srnn(4, 3, 0.1, rng)
        # construct a gradient that pushes |W - eta g|_F to 8 > alpha = 7.5
        direction = rng.normal(size=(4, 4))
        direction *= 8.0 / np.linalg.norm(direction)
        g = zero_grads(p)
        g["w"] = (p.w - direction) / 0.5
        cfg = WogdConfig(eta=0.5, lam=0.95, alpha=7.5)
        q, triggered, _ = one_wogd_step(cfg, p, g, t=1)
        assert triggered == 1
        assert spectral_norm(q.w) <= 0.95 + 1e-9

    def test_lazy_projection_leaves_small_updates_alone(self):
        rng = np.random.default_rng(3)
        p = random_srnn(3, 2, 0.1, rng)
        g = srnn_grads(rng, scale=0.01)
        cfg = WogdConfig(eta=0.05, alpha=7.5)
        q, triggered, _ = one_wogd_step(cfg, p, g, t=3)
        assert triggered == 0
        np.testing.assert_allclose(q.w, p.w - 0.05 * g["w"], atol=1e-15)

    def test_output_ball_enforced(self):
        rng = np.random.default_rng(4)
        p = random_srnn(3, 2, 0.1, rng)
        g = zero_grads(p)
        g["theta_out"] = np.array([-100.0, 0.0, 0.0])
        cfg = WogdConfig(eta=0.05, out_radius=2.5, out_lr_scale=8.0)
        q, _, _ = one_wogd_step(cfg, p, g, t=1)
        assert np.linalg.norm(q.theta_out) <= 2.5 + 1e-12

    def test_rejects_lstm_params(self):
        rng = np.random.default_rng(5)
        p = random_lstm(3, 2, 0.1, rng)
        cfg = WogdConfig(eta=0.05)
        with pytest.raises(TypeError):
            wogd_step(cfg, p, {}, {}, t=1)

    def test_overflow_detected(self):
        rng = np.random.default_rng(6)
        p = random_srnn(3, 2, 0.1, rng)
        g = zero_grads(p)
        g["w"] = np.full((3, 3), np.nan)
        cfg = WogdConfig(eta=0.05)
        assert one_wogd_step(cfg, p, g, t=7)[2] == "parameter update"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WogdConfig(eta=0.0)
        with pytest.raises(ValueError):
            WogdConfig(eta=0.1, lam=1.0)
        WogdConfig(eta=0.1, alpha=0.0)  # always-project variant is legal

    @settings(max_examples=200)
    @given(
        n_h=st.integers(1, 6),
        n_x=st.integers(1, 4),
        t=st.integers(1, 10**6),
        out_lr_scale=st.floats(1e-3, 1e3),
        out_radius=st.floats(1e-3, 10.0),
        scale=st.floats(1e-6, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_output_weights_stay_in_ball(self, n_h, n_x, t, out_lr_scale, out_radius, scale, seed):
        rng = np.random.default_rng(seed)
        p = SrnnParams(
            w=rng.normal(size=(n_h, n_h)), u=rng.normal(size=(n_h, n_x)),
            theta_out=rng.normal(0.0, out_radius, n_h),
        )
        g = srnn_grads(rng, n_h, n_x, scale)
        cfg = WogdConfig(eta=0.05, out_lr_scale=out_lr_scale, out_radius=out_radius)
        q, _, _ = one_wogd_step(cfg, p, g, t)
        # The projection scales by radius / norm in floating point, so the
        # computed norm may land up to two ulps (relative) past the radius.
        assert np.linalg.norm(q.theta_out) <= out_radius * (1.0 + 4.0 * np.finfo(float).eps)

    def test_determinism(self):
        rng = np.random.default_rng(7)
        p = random_srnn(3, 2, 0.1, rng)
        g = srnn_grads(rng)
        cfg = WogdConfig(eta=0.05)
        a, _, _ = one_wogd_step(cfg, p, g, t=2)
        b, _, _ = one_wogd_step(cfg, p, g, t=2)
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.theta_out, b.theta_out)


def serial_wogd_step(cfg, family, params, grads, t):
    """The WOGD update written out one run at a time, as a reference:
    np.linalg.norm per matrix, the l2-ball projection, clip_singular_values,
    and a run stops at its first non-finite update, whose name it reports."""
    new = {k: a.copy() for k, a in params.items()}
    clips, failed = [], []
    for b in range(len(params["w"])):
        theta = params["theta_out"][b] - (cfg.out_lr_scale / math.sqrt(t)) * grads["theta_out"][b]
        hidden = {k: params[k][b] - cfg.eta * grads[k][b] for k in ("w", "u")}
        if not np.isfinite(theta).all():
            failed.append("output-weight update")
        elif not all(np.isfinite(a).all() for a in hidden.values()):
            failed.append("parameter update")
        else:
            failed.append(None)
        clips.append(0)
        if failed[-1]:
            continue
        norm = float(np.linalg.norm(theta))
        new["theta_out"][b] = theta if norm <= cfg.out_radius else theta * (cfg.out_radius / norm)
        for k, a in hidden.items():
            if float(np.linalg.norm(a)) > cfg.alpha:
                a = clip_singular_values(a, cfg.lam)
                clips[-1] += 1
            new[k][b] = a
        if isinstance(family, CwrnnParams):
            new["w"][b] = new["w"][b] * family.recurrent_mask()
    return new, clips, failed


class TestStackedUpdate:
    """wogd_step and projected_gradient over B runs are bit for bit the
    update of each run alone."""

    @settings(max_examples=150)
    @given(
        batch=st.integers(1, 6),
        half_h=st.integers(1, 8),
        n_x=st.integers(1, 6),
        clockwork=st.booleans(),
        t=st.integers(1, 10**4),
        alpha=st.sampled_from([0.0, 1.0, 3.0, 1e9]),
        out_radius=st.floats(1e-2, 10.0),
        scale=st.floats(1e-3, 1e3),
        poison=st.sampled_from([None, "w", "u", "theta_out"]),
        bad=st.sampled_from([np.nan, np.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_serial_reference(
        self, batch, half_h, n_x, clockwork, t, alpha, out_radius, scale, poison, bad, seed
    ):
        rng = np.random.default_rng(seed)
        n_h = 2 * half_h
        family = (random_cwrnn(n_h, n_x, (1, 2), 0.5, rng) if clockwork
                  else random_srnn(n_h, n_x, 0.5, rng))
        params = {k: rng.normal(0.0, 0.5, (batch,) + a.shape) for k, a in param_blocks(family)}
        if clockwork:
            params["w"] *= family.recurrent_mask()
        # scale/eta moves some runs far past alpha and out_radius
        grads = {k: rng.normal(0.0, scale, a.shape) for k, a in params.items()}
        poisoned = int(rng.integers(batch)) if poison else None
        if poison:
            grads[poison][poisoned].flat[rng.integers(grads[poison][poisoned].size)] = bad
        cfg = WogdConfig(eta=0.3, lam=0.9, alpha=alpha, out_lr_scale=2.0, out_radius=out_radius)

        with np.errstate(invalid="ignore"):
            new, clips, failed = wogd_step(cfg, family, params, grads, t)
            projected = projected_gradient(params, grads, cfg)
        ref, ref_clips, ref_failed = serial_wogd_step(cfg, family, params, grads, t)
        assert failed == ref_failed
        if poison:
            want = "output-weight update" if poison == "theta_out" else "parameter update"
            assert failed[poisoned] == want
        for b in range(batch):
            if b == poisoned:
                continue
            assert clips[b] == ref_clips[b]
            for k in params:
                assert np.array_equal(new[k][b], ref[k][b]), (b, k)
            for k in ("w", "u"):
                step = params[k][b] - cfg.eta * grads[k][b]
                want = (params[k][b] - clip_singular_values(step, cfg.lam)) / cfg.eta
                assert np.array_equal(projected[k][b], want), (b, k)
        assert np.array_equal(projected["theta_out"], grads["theta_out"], equal_nan=True)


class TestBaselineStep:
    def test_sgd_exact(self):
        rng = np.random.default_rng(8)
        p = random_srnn(3, 2, 0.1, rng)
        g = srnn_grads(rng)
        cfg = BaselineConfig(kind="sgd", learning_rate=0.1)
        q = one_run_step(cfg, p, g, t=1)
        np.testing.assert_allclose(q.w, p.w - 0.1 * g["w"], atol=1e-15)
        np.testing.assert_allclose(q.theta_out, p.theta_out - 0.1 * g["theta_out"], atol=1e-15)

    def test_adam_first_step_scalar_hand_computation(self):
        # One Adam step on a scalar: m = (1-b1) g and v = (1-b2) g^2, so after
        # bias correction m_hat = g, sqrt(v_hat) = |g|, and the update is the
        # sign-like step -lr * g / (|g| + eps).
        g0 = 0.37
        lr, eps = 0.01, 1e-8
        p = random_srnn(1, 1, 0.0, np.random.default_rng(0))
        g = {"w": np.array([[g0]]), "u": np.zeros((1, 1)), "theta_out": np.zeros(1)}
        cfg = BaselineConfig(kind="adam", learning_rate=lr)
        q = one_run_step(cfg, p, g, t=1)
        expected = -lr * g0 / (abs(g0) + eps)
        assert q.w[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_adam_matches_reference_sequence(self):
        # Multi-step scalar reference with explicit moment recursions.
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        cfg = BaselineConfig(kind="adam", learning_rate=lr)
        p = random_srnn(1, 1, 0.0, np.random.default_rng(0))
        grads_seq = [0.5, -0.2, 0.8, 0.1]
        moments = {}
        m = v = 0.0
        x_ref = 0.0
        for t, g0 in enumerate(grads_seq, start=1):
            g = {"w": np.array([[g0]]), "u": np.zeros((1, 1)), "theta_out": np.zeros(1)}
            p = one_run_step(cfg, p, g, t, moments)
            m = b1 * m + (1 - b1) * g0
            v = b2 * v + (1 - b2) * g0 * g0
            x_ref -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            assert p.w[0, 0] == pytest.approx(x_ref, rel=1e-12)

    def test_rmsprop_saturates_to_sign_step(self):
        # Constant gradient: the accumulator converges to g^2, so the step
        # magnitude approaches lr * sign(g).
        lr = 0.01
        cfg = BaselineConfig(kind="rmsprop", learning_rate=lr)
        p = random_srnn(1, 1, 0.0, np.random.default_rng(0))
        g = {"w": np.array([[0.25]]), "u": np.zeros((1, 1)), "theta_out": np.zeros(1)}
        moments = {}
        for t in range(1, 400):
            p = one_run_step(cfg, p, g, t, moments)
        # after many steps each increment is ~lr
        last = p.w[0, 0]
        p = one_run_step(cfg, p, g, 400, moments)
        assert last - p.w[0, 0] == pytest.approx(lr, rel=1e-3)

    def test_lstm_blocks_all_updated(self):
        rng = np.random.default_rng(9)
        p = random_lstm(2, 2, 0.1, rng)
        g = {name: np.ones_like(arr) for name, arr in param_blocks(p)}
        cfg = BaselineConfig(kind="sgd", learning_rate=0.5)
        q = one_run_step(cfg, p, g, t=1)
        for name, arr in param_blocks(p):
            np.testing.assert_allclose(getattr(q, name), arr - 0.5, atol=1e-15)

    def test_members_update_apart(self):
        # Stacked runs update elementwise, each with its own moments, as each
        # run does alone; a run whose update is non-finite is reported with
        # its first failing block.
        rng = np.random.default_rng(10)
        runs = [random_lstm(2, 3, 0.1, rng) for _ in range(3)]
        grads = [{name: rng.normal(size=arr.shape) for name, arr in param_blocks(p)} for p in runs]
        grads[1]["u_f"][0, 0] = np.inf
        grads[1]["theta_out"][0] = np.nan
        for kind in ("sgd", "rmsprop", "adam"):
            cfg = BaselineConfig(kind=kind, learning_rate=0.01)
            stacks = {name: np.stack([getattr(p, name) for p in runs]) for name, _ in param_blocks(runs[0])}
            g = {name: np.stack([gr[name] for gr in grads]) for name in stacks}
            moments, alone, alone_moments = {}, [runs[0], runs[2]], [{}, {}]
            for t in (1, 2, 3):
                with np.errstate(invalid="ignore"):
                    stacks, failed = baseline_step(cfg, stacks, g, moments, t)
                assert failed == [None, "update of block 'u_f'", None]
                alone = [
                    one_run_step(cfg, p, grads[b], t, mom)
                    for p, b, mom in zip(alone, (0, 2), alone_moments)
                ]
                for p, b in zip(alone, (0, 2)):
                    for name, arr in param_blocks(p):
                        assert np.array_equal(stacks[name][b], arr), (kind, t, name)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            BaselineConfig(kind="momentum", learning_rate=0.1)


class TestProjectedGradient:
    def test_interior_equals_raw(self):
        rng = np.random.default_rng(10)
        p = random_srnn(3, 2, 0.05, rng)
        g = srnn_grads(rng, scale=0.01)
        cfg = WogdConfig(eta=0.05, lam=0.95)
        pg = one_projected_gradient(p, g, cfg)
        np.testing.assert_allclose(pg["w"], g["w"], atol=1e-12)
        np.testing.assert_allclose(pg["u"], g["u"], atol=1e-12)

    def test_zero_gradient(self):
        rng = np.random.default_rng(11)
        p = random_srnn(3, 2, 0.05, rng)
        cfg = WogdConfig(eta=0.05)
        pg = one_projected_gradient(p, zero_grads(p), cfg)
        np.testing.assert_allclose(pg["w"], 0.0, atol=1e-12)

    def test_boundary_shrinks_gradient(self):
        # Feasible point, infeasible post-step point: the projected gradient
        # cannot exceed the raw gradient, and it agrees with the direct
        # clip-based computation.
        rng = np.random.default_rng(12)
        cfg = WogdConfig(eta=0.2, lam=0.9)
        for _ in range(25):
            w = rng.normal(size=(3, 3))
            w *= 0.88 / spectral_norm(w)
            p = random_srnn(3, 2, 0.05, rng)
            p = type(p)(w=w, u=p.u, theta_out=p.theta_out)
            g = srnn_grads(rng, scale=3.0)
            pg = one_projected_gradient(p, g, cfg)
            direct = (w - clip_singular_values(w - cfg.eta * g["w"], cfg.lam)) / cfg.eta
            np.testing.assert_allclose(pg["w"], direct, atol=1e-10)
            assert np.linalg.norm(pg["w"]) <= np.linalg.norm(g["w"]) + 1e-9
