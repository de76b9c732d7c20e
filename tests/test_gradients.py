"""Tape semantics, windowed losses, and gradient correctness checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wogd.gradients import (
    ActivationTape,
    NumericOverflowError,
    elman_window_gradient,
    fd_gradient,
    instant_gradient,
    smoothed_loss,
    tbptt_gradient,
)
from wogd.models import (
    SrnnParams,
    StepRecord,
    random_cwrnn,
    random_lstm,
    random_srnn,
    readout,
    replace_blocks,
    step_model,
    zero_state,
)
from wogd.tasks import LOSS_CROSS_ENTROPY, LOSS_SQUARED, loss_and_residual

MAKERS = {
    "srnn": lambda n_h, n_x, rng: random_srnn(n_h, n_x, 0.4, rng),
    "lstm": lambda n_h, n_x, rng: random_lstm(n_h, n_x, 0.4, rng),
    "cwrnn": lambda n_h, n_x, rng: random_cwrnn(n_h, n_x, (1, 2), 0.4, rng),
}


def drive(params, steps, rng, loss_kind=LOSS_SQUARED, capacity=None):
    """Run the model over random data, pushing records onto a fresh tape."""
    tape = ActivationTape(capacity or steps)
    state = zero_state(params)
    for _ in range(steps):
        x = rng.uniform(-1.0, 1.0, params.n_x)
        if loss_kind == LOSS_SQUARED:
            d = rng.uniform(-1.0, 1.0)
        else:
            d = float(rng.integers(0, 2))
        new_state, gates = step_model(params, state, x)
        pred = readout(params, new_state, loss_kind)
        tape.push(StepRecord(x=x, d=d, h_prev=state, h_new=new_state, prediction=pred, gates=gates))
        state = new_state
    return tape


def naive_smoothed_loss(tape, params, loss_kind):
    """Oracle: per-record replay with the plain step functions."""
    state = tape.anchor
    total = 0.0
    for rec in tape.records:
        state, _ = step_model(params, state, rec.x)
        pred = readout(params, state, loss_kind)
        total += loss_and_residual(pred, rec.d, loss_kind)[0]
    return total / len(tape)


def max_rel_err(grads, oracle):
    worst = 0.0
    for name, g in grads.items():
        denom = max(np.abs(oracle[name]).max(), 1e-6)
        worst = max(worst, float(np.abs(g - oracle[name]).max()) / denom)
    return worst


class TestTape:
    def test_push_onto_empty(self):
        rng = np.random.default_rng(0)
        p = random_srnn(2, 2, 0.3, rng)
        tape = ActivationTape(4)
        state = zero_state(p)
        new_state, _ = step_model(p, state, np.zeros(2))
        rec = StepRecord(x=np.zeros(2), d=0.0, h_prev=state, h_new=new_state, prediction=0.0)
        tape.push(rec)
        assert len(tape) == 1
        assert tape.anchor is state

    def test_eviction_advances_anchor(self):
        rng = np.random.default_rng(1)
        p = random_srnn(2, 2, 0.3, rng)
        tape = drive(p, 5, rng, capacity=4)
        assert len(tape) == 4
        assert tape.anchor.t == tape.records[0].t - 1
        np.testing.assert_array_equal(tape.anchor.h, tape.records[0].h_prev.h)

    def test_rejects_non_contiguous(self):
        rng = np.random.default_rng(2)
        p = random_srnn(2, 2, 0.3, rng)
        tape = drive(p, 3, rng, capacity=8)
        state = zero_state(p, t=10)
        nxt, _ = step_model(p, state, np.zeros(2))
        rec = StepRecord(x=np.zeros(2), d=0.0, h_prev=state, h_new=nxt, prediction=0.0)
        with pytest.raises(ValueError):
            tape.push(rec)

    def test_loss_invariant_under_eviction(self):
        # Pushing through a full ring keeps smoothed_loss equal to a naive
        # recomputation at every point.
        rng = np.random.default_rng(3)
        p = random_srnn(3, 2, 0.4, rng)
        tape = ActivationTape(4)
        state = zero_state(p)
        for _ in range(9):
            x = rng.uniform(-1, 1, 2)
            d = rng.uniform(-1, 1)
            new_state, _ = step_model(p, state, x)
            pred = readout(p, new_state, LOSS_SQUARED)
            tape.push(StepRecord(x=x, d=d, h_prev=state, h_new=new_state, prediction=pred))
            state = new_state
            assert smoothed_loss(tape, p) == pytest.approx(
                naive_smoothed_loss(tape, p, LOSS_SQUARED), abs=1e-14
            )

    def test_empty_tape_rejected(self):
        p = random_srnn(2, 2, 0.3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            smoothed_loss(ActivationTape(3), p)


class TestSmoothedLoss:
    def test_zero_residual(self):
        p = SrnnParams(w=np.zeros((2, 2)), u=np.zeros((2, 2)), theta_out=np.zeros(2))
        tape = drive(p, 1, np.random.default_rng(0))
        rec = tape.records[0]
        tape2 = ActivationTape(1)
        tape2.push(StepRecord(x=rec.x, d=0.0, h_prev=rec.h_prev, h_new=rec.h_new, prediction=0.0))
        assert smoothed_loss(tape2, p) == 0.0

    def test_two_step_arithmetic(self):
        # residuals 1 and 3 -> (0.5*1 + 0.5*9) / 2 = 2.5
        p = SrnnParams(w=np.zeros((1, 1)), u=np.zeros((1, 1)), theta_out=np.zeros(1))
        tape = ActivationTape(2)
        s0 = zero_state(p)
        s1, _ = step_model(p, s0, np.zeros(1))
        s2, _ = step_model(p, s1, np.zeros(1))
        tape.push(StepRecord(x=np.zeros(1), d=-1.0, h_prev=s0, h_new=s1, prediction=0.0))
        tape.push(StepRecord(x=np.zeros(1), d=-3.0, h_prev=s1, h_new=s2, prediction=0.0))
        assert smoothed_loss(tape, p) == pytest.approx(2.5, abs=1e-15)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(4)
        for kind in (LOSS_SQUARED, LOSS_CROSS_ENTROPY):
            for name, make in MAKERS.items():
                p = make(4, 3, rng)
                tape = drive(p, 7, rng, kind)
                assert smoothed_loss(tape, p, kind) == pytest.approx(
                    naive_smoothed_loss(tape, p, kind), abs=1e-14
                )
                # evaluation at *other* params follows replay semantics
                q = make(4, 3, rng)
                assert smoothed_loss(tape, q, kind) == pytest.approx(
                    naive_smoothed_loss(tape, q, kind), abs=1e-14
                )


class TestReplayGradient:
    def test_zero_readout_kills_hidden_gradient(self):
        rng = np.random.default_rng(5)
        p = random_srnn(3, 2, 0.4, rng)
        p = replace_blocks(p, {"theta_out": np.zeros(3)})
        tape = drive(p, 6, rng)
        g = tbptt_gradient(tape, p)
        np.testing.assert_array_equal(g["w"], 0.0)
        np.testing.assert_array_equal(g["u"], 0.0)
        expected = -np.mean(
            [r.d * r.h_new.h for r in tape.records], axis=0
        )
        np.testing.assert_allclose(g["theta_out"], expected, atol=1e-15)

    def test_single_step_closed_form(self):
        # w = 1, one step from the zero anchor, n_h = n_x = 1:
        # L = 0.5 (d - theta*tanh(u x))^2 with W unused at the zero anchor.
        w0, u0, th0, x0, d0 = 0.3, 0.7, 1.2, 0.5, 0.4
        p = SrnnParams(w=np.array([[w0]]), u=np.array([[u0]]), theta_out=np.array([th0]))
        tape = ActivationTape(1)
        s0 = zero_state(p)
        s1, _ = step_model(p, s0, np.array([x0]))
        pred = readout(p, s1, LOSS_SQUARED)
        tape.push(StepRecord(x=np.array([x0]), d=d0, h_prev=s0, h_new=s1, prediction=pred))
        g = tbptt_gradient(tape, p)
        h = math.tanh(u0 * x0)
        resid = th0 * h - d0
        assert g["theta_out"][0] == pytest.approx(resid * h, abs=1e-12)
        assert g["u"][0, 0] == pytest.approx(resid * th0 * (1 - h * h) * x0, abs=1e-12)
        assert g["w"][0, 0] == pytest.approx(0.0, abs=1e-12)  # anchor h is zero

    @pytest.mark.parametrize("arch", ["srnn", "lstm", "cwrnn"])
    @pytest.mark.parametrize("kind", [LOSS_SQUARED, LOSS_CROSS_ENTROPY])
    def test_matches_finite_differences(self, arch, kind):
        rng = np.random.default_rng(6)
        for w, steps in ((1, 1), (5, 9), (20, 26)):
            for _ in range(4):
                n_h = int(rng.choice([2, 4]))
                p = MAKERS[arch](n_h, 3, rng)
                tape = drive(p, steps, rng, kind, capacity=w)
                g = tbptt_gradient(tape, p, "replay", kind)
                f = fd_gradient(tape, p, 1e-6, kind)
                assert max_rel_err(g, f) <= 1e-5

    def test_w1_replay_equals_instant_gradient(self):
        # With a single-record tape the smoothed loss is the newest loss and
        # replay backprop sees exactly the recorded activations.
        rng = np.random.default_rng(7)
        for name, make in MAKERS.items():
            p = make(4, 3, rng)
            tape = drive(p, 5, rng, capacity=1)
            g_replay = tbptt_gradient(tape, p, "replay")
            g_instant = instant_gradient(tape, p)
            for key in g_replay:
                np.testing.assert_allclose(g_replay[key], g_instant[key], atol=1e-12)

    def test_overflow_identifies_timestep(self):
        rng = np.random.default_rng(8)
        p = random_srnn(3, 2, 0.4, rng)
        tape = drive(p, 4, rng)
        bad = replace_blocks(p, {"theta_out": np.array([np.inf, 0.0, 0.0])})
        with np.errstate(invalid="ignore"), pytest.raises(NumericOverflowError) as err:
            tbptt_gradient(tape, bad)
        assert err.value.timestep == tape.newest_t


class TestCachedGradient:
    def test_cached_equals_replay_on_static_params(self):
        # When the tape was recorded under the same params the two modes
        # differentiate the same computation.
        rng = np.random.default_rng(9)
        for name, make in MAKERS.items():
            p = make(4, 3, rng)
            tape = drive(p, 8, rng)
            g_replay = tbptt_gradient(tape, p, "replay")
            g_cached = tbptt_gradient(tape, p, "cached")
            for key in g_replay:
                np.testing.assert_allclose(g_cached[key], g_replay[key], atol=1e-12)

    def test_modes_differ_after_param_drift(self):
        rng = np.random.default_rng(10)
        p = random_srnn(4, 3, 0.4, rng)
        tape = drive(p, 8, rng)
        q = random_srnn(4, 3, 0.4, rng)
        g_replay = tbptt_gradient(tape, q, "replay")
        g_cached = tbptt_gradient(tape, q, "cached")
        assert max_rel_err(g_cached, g_replay) > 1e-3

    def test_rejects_unknown_mode(self):
        rng = np.random.default_rng(11)
        p = random_srnn(2, 2, 0.3, rng)
        tape = drive(p, 2, rng)
        with pytest.raises(ValueError):
            tbptt_gradient(tape, p, "other")


class TestFdGradient:
    def test_eps_domain(self):
        rng = np.random.default_rng(12)
        p = random_srnn(2, 2, 0.3, rng)
        tape = drive(p, 2, rng)
        with pytest.raises(ValueError):
            fd_gradient(tape, p, 1e-2)

    def test_quadratic_in_readout(self):
        # The squared loss is exactly quadratic in theta_out, so central
        # differences are exact up to roundoff against the analytic gradient.
        rng = np.random.default_rng(13)
        p = random_srnn(3, 2, 0.4, rng)
        tape = drive(p, 5, rng)
        f = fd_gradient(tape, p, 1e-6)
        g = tbptt_gradient(tape, p)
        np.testing.assert_allclose(f["theta_out"], g["theta_out"], atol=1e-9)

    def test_zero_net_symmetry(self):
        # With theta_out = 0 and all-zero weights, perturbing w is symmetric
        # through the odd tanh at the origin: the w gradient vanishes.
        p = SrnnParams(w=np.zeros((2, 2)), u=np.zeros((2, 2)), theta_out=np.zeros(2))
        rng = np.random.default_rng(14)
        tape = drive(p, 4, rng)
        f = fd_gradient(tape, p, 1e-5)
        np.testing.assert_allclose(f["w"], 0.0, atol=1e-12)


class TestGradientNormBound:
    def test_closed_form_ceiling(self):
        # For spectral norms <= lam and |theta| <= 1 with the squared loss,
        # |g_w|_F <= 2 n_h / (1 - lam) and |g_u|_F <= 2 sqrt(n_h n_x)/(1 - lam).
        rng = np.random.default_rng(15)
        lam = 0.95
        n_h, n_x = 4, 3
        bound_w = 2.0 * n_h / (1.0 - lam)
        bound_u = 2.0 * math.sqrt(n_h * n_x) / (1.0 - lam)
        from wogd.linalg import spectral_norm

        for _ in range(50):
            w = rng.normal(size=(n_h, n_h))
            w *= lam * rng.uniform(0.5, 1.0) / spectral_norm(w)
            u = rng.normal(size=(n_h, n_x))
            u *= lam * rng.uniform(0.5, 1.0) / spectral_norm(u)
            theta = rng.normal(size=n_h)
            theta /= max(1.0, np.linalg.norm(theta))
            p = SrnnParams(w=w, u=u, theta_out=theta)
            tape = drive(p, 20, rng, capacity=10)
            g = tbptt_gradient(tape, p)
            assert np.linalg.norm(g["w"]) <= bound_w + 1e-9
            assert np.linalg.norm(g["u"]) <= bound_u + 1e-9


class TestLockstepKernel:
    """The batched Elman kernel against its B = 1 case and the FD oracle."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        batch=st.integers(1, 4),
        m=st.integers(1, 30),
        n_h=st.integers(1, 6),
        n_x=st.integers(1, 4),
        arch=st.sampled_from(["srnn", "cwrnn"]),
        kind=st.sampled_from([LOSS_SQUARED, LOSS_CROSS_ENTROPY]),
        mode=st.sampled_from(["replay", "cached"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_members_equal_single_tape(self, batch, m, n_h, n_x, arch, kind, mode, seed):
        rng = np.random.default_rng(seed)
        # cwrnn: period 2 on odd sizes leaves units idle every other step
        periods = (1, 2) if n_h % 2 == 0 else (2,)
        extra = int(rng.integers(0, 4))  # steps already evicted: non-zero anchor
        members, tapes = [], []
        for _ in range(batch):
            if arch == "srnn":
                p = random_srnn(n_h, n_x, 0.4, rng)
            else:
                p = random_cwrnn(n_h, n_x, periods, 0.4, rng)
            members.append(p)
            tapes.append(drive(p, m + extra, rng, kind, capacity=m))
            # drift the parameters so cached and replay differ
            members[-1] = replace_blocks(p, {"w": p.w * 0.9, "theta_out": p.theta_out + 0.1})

        recs = [t.records for t in tapes]
        x = np.array([[r.x for r in rs] for rs in recs]).swapaxes(0, 1)
        d = np.array([[r.d for r in rs] for rs in recs]).T
        pred = np.array([[r.prediction for r in rs] for rs in recs]).T
        h = np.array([[t.anchor.h] + [r.h_new.h for r in t.records] for t in tapes])
        h = h.swapaxes(0, 1)[..., None]
        ts = np.arange(extra + 1, extra + m + 1)
        grads, failed = elman_window_gradient(
            x, d, pred, h, ts,
            np.stack([p.w for p in members]), np.stack([p.u for p in members]),
            np.stack([p.theta_out for p in members]),
            mode, kind, np.full(m, 1.0 / m), members[0] if arch == "cwrnn" else None,
        )
        assert failed == [None] * batch
        for b, (p, tape) in enumerate(zip(members, tapes)):
            single = tbptt_gradient(tape, p, mode, kind)
            for name, g in single.items():
                assert np.array_equal(grads[name][b], g), name
        if mode == "replay":
            g = tbptt_gradient(tapes[0], members[0], "replay", kind)
            assert max_rel_err(g, fd_gradient(tapes[0], members[0], 1e-6, kind)) <= 1e-5
