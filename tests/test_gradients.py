"""Tape semantics, windowed losses, and gradient correctness checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wogd import gradients, models
from wogd.gradients import (
    ActivationTape,
    elman_window_gradient,
    fd_gradient,
    instant_gradient,
    lstm_window_gradient,
    smoothed_loss,
    tbptt_gradient,
)
from wogd.harness import ExperimentConfig, run_batch
from wogd.models import (
    LstmGates,
    LstmParams,
    SrnnParams,
    clockwork,
    elman_forward,
    lstm_forward,
    member_major,
    param_blocks,
    random_cwrnn,
    random_lstm,
    random_srnn,
    readout,
    step_model,
)
from wogd.tasks import CROSS_ENTROPY_CLAMP, LOSS_CROSS_ENTROPY, LOSS_SQUARED

MAKERS = {
    "srnn": lambda n_h, n_x, rng: random_srnn(n_h, n_x, 0.4, rng),
    "lstm": lambda n_h, n_x, rng: random_lstm(n_h, n_x, 0.4, rng),
    "cwrnn": lambda n_h, n_x, rng: random_cwrnn(n_h, n_x, (1, 2), 0.4, rng),
}


def one_run(params):
    """params as the (1, ...) stacks of one run, keyed like param_blocks."""
    return {name: a[None] for name, a in param_blocks(params)}


def drive(params, steps, rng, loss_kind=LOSS_SQUARED, capacity=None):
    """Run the model at B = 1 over random data, pushing each step onto a
    fresh tape."""
    blocks = one_run(params)
    h = np.zeros((1, params.n_h))
    c = h if isinstance(params, LstmParams) else None
    tape = ActivationTape(capacity or steps, h, params.n_x, c)
    for t in range(1, steps + 1):
        x = rng.uniform(-1.0, 1.0, (1, params.n_x))
        if loss_kind == LOSS_SQUARED:
            d = rng.uniform(-1.0, 1.0)
        else:
            d = float(rng.integers(0, 2))
        h, gates = step_model(params, blocks, x, h, c, t)
        c = None if gates is None else gates.c_new
        tape.push(x, d, readout(h, params.theta_out, loss_kind), h, gates)
    return tape


def tbptt(tape, params, mode="replay", loss_kind=LOSS_SQUARED):
    """tbptt_gradient of the one run on the tape under params, as blocks
    shaped like params'; the run's gradient must be finite."""
    grads, failed = tbptt_gradient(tape, one_run(params), params, mode, loss_kind)
    assert failed == [None]
    return {name: g[0] for name, g in grads.items()}


def scalar_loss(pred, d, loss_kind):
    """Oracle: the loss of one prediction, in scalar arithmetic."""
    if loss_kind == LOSS_SQUARED:
        return 0.5 * (pred - d) * (pred - d)
    p = min(max(pred, CROSS_ENTROPY_CLAMP), 1.0 - CROSS_ENTROPY_CLAMP)
    return -d * math.log(p) - (1.0 - d) * math.log(1.0 - p)


def naive_smoothed_loss(tape, params, loss_kind):
    """Oracle: per-step replay with the online step, one loss at a time."""
    blocks = one_run(params)
    h, c = tape.h[0], None if tape.c is None else tape.c[0]
    total = 0.0
    for t, x, d in zip(tape.ts, tape.x, tape.d[:, 0]):
        h, gates = step_model(params, blocks, x, h, c, t)
        c = None if gates is None else gates.c_new
        total += scalar_loss(float(readout(h, params.theta_out, loss_kind)[0]), d, loss_kind)
    return total / len(tape)


def reference_smoothed_loss(tape, params, loss_kind):
    """Oracle for the member-axis loss, in its one-run form: the family's
    forward kernel at B = 1, the (m,) readouts and one float mean."""
    x = member_major(tape.x)
    if isinstance(params, LstmParams):
        stacks = (params.w[None], params.u[None], params.b[None])
        h = lstm_forward(x, tape.h[0], tape.c[0], *stacks)[0][:, 0]
    else:
        w, active = clockwork(params.w[None], params, tape.ts)
        h = elman_forward(x, tape.h[0][..., None], w, params.u[None], active)[:, 0, :, 0]
    preds, d = readout(h[1:], params.theta_out, loss_kind), tape.d[:, 0]
    if loss_kind == LOSS_SQUARED:
        return float(np.mean(0.5 * (preds - d) * (preds - d)))
    p = np.clip(preds, CROSS_ENTROPY_CLAMP, 1.0 - CROSS_ENTROPY_CLAMP)
    return float(np.mean(-d * np.log(p) - (1.0 - d) * np.log(1.0 - p)))


def reference_fd_gradient(tape, params, eps, loss_kind):
    """Oracle for the member-batched fd_gradient: the serial loop, one
    reference_smoothed_loss call per probe of one entry."""
    grads = {}
    for name, arr in param_blocks(params):
        work = arr.copy()
        probe = dataclasses.replace(params, **{name: work})
        g = np.zeros_like(work)
        flat_w, flat_g = work.reshape(-1), g.reshape(-1)
        for k in range(flat_w.size):
            orig = flat_w[k]
            flat_w[k] = orig + eps
            up = reference_smoothed_loss(tape, probe, loss_kind)
            flat_w[k] = orig - eps
            down = reference_smoothed_loss(tape, probe, loss_kind)
            flat_w[k] = orig
            flat_g[k] = (up - down) / (2.0 * eps)
        grads[name] = g
    return grads


def any_model(arch, n_h, n_x, rng):
    """A random model of the family for any n_h: the clockwork gets three,
    two or one block(s), the one-block case idle every other step."""
    if arch != "cwrnn":
        return MAKERS[arch](n_h, n_x, rng)
    periods = (1, 2, 4) if n_h % 3 == 0 else (1, 2) if n_h % 2 == 0 else (2,)
    return random_cwrnn(n_h, n_x, periods, 0.4, rng)


def bitwise(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
        h0 = np.zeros((1, 2))
        tape = ActivationTape(4, h0, 2)
        h, _ = step_model(p, one_run(p), np.zeros((1, 2)), h0, None, 1)
        tape.push(np.zeros(2), 0.0, 0.0, h)
        assert len(tape) == 1
        np.testing.assert_array_equal(tape.h[0], h0)
        np.testing.assert_array_equal(tape.ts, [1])

    def test_eviction_advances_anchor(self):
        p = random_srnn(2, 2, 0.3, np.random.default_rng(1))
        tape = drive(p, 5, np.random.default_rng(2), capacity=4)
        full = drive(p, 5, np.random.default_rng(2))
        assert len(tape) == 4
        np.testing.assert_array_equal(tape.ts, [2, 3, 4, 5])
        # the anchor is the state after step 1, where the oldest kept step starts
        np.testing.assert_array_equal(tape.h, full.h[1:])
        np.testing.assert_array_equal(tape.x, full.x[1:])

    @settings(max_examples=60)
    @given(
        capacity=st.integers(1, 6),
        batch=st.integers(1, 3),
        pushes=st.integers(0, 30),
        lstm=st.booleans(),
        kept=st.lists(st.integers(0, 2), max_size=3, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_window_is_last_pushes(self, capacity, batch, pushes, lstm, kept, seed):
        # Past 2 * capacity pushes the window shifts to the front of the
        # arrays: 30 pushes shift a capacity-1 tape 28 times, capacity-6 3 times.
        rng = np.random.default_rng(seed)
        n_x, n_h = 2, 3
        x = rng.normal(size=(pushes, batch, n_x))
        d = rng.normal(size=(pushes, batch))
        pred = rng.normal(size=(pushes, batch))
        h = rng.normal(size=(pushes + 1, batch, n_h))
        c = rng.normal(size=(pushes + 1, batch, n_h))
        gates = rng.normal(size=(4, pushes, batch, n_h))
        tape = ActivationTape(capacity, h[0], n_x, c[0] if lstm else None)

        def check(k, members):
            # after k pushes: steps k - m + 1 .. k, states from the anchor h[k - m]
            m = min(k, capacity)
            assert len(tape) == m and tape.t == k
            assert np.array_equal(tape.ts, np.arange(k - m + 1, k + 1))
            steps = [(tape.x, x), (tape.d, d), (tape.pred, pred)]
            states = [(tape.h, h)]
            if lstm:
                steps += list(zip(tape.gates, gates))
                states.append((tape.c, c))
            else:
                assert tape.c is None and tape.gates is None
            for got, full in steps:
                assert np.array_equal(got, full[k - m : k][:, members])
            for got, full in states:
                assert np.array_equal(got, full[k - m : k + 1][:, members])
            assert np.array_equal(tape.state, h[k][members])

        everyone = list(range(batch))
        for k in range(pushes):
            check(k, everyone)
            step_gates = None
            if lstm:
                i, f, o, g = gates[:, k]
                step_gates = LstmGates(i=i, f=f, o=o, g=g, c_new=c[k + 1])
            tape.push(x[k], d[k], pred[k], h[k + 1], step_gates)
        check(pushes, everyone)
        members = [b for b in kept if b < batch]
        tape.keep(members)
        check(pushes, members)

    def test_loss_invariant_under_eviction(self):
        # Pushing through a full tape keeps smoothed_loss equal to a naive
        # recomputation at every point.
        rng = np.random.default_rng(3)
        p = random_srnn(3, 2, 0.4, rng)
        h = np.zeros((1, 3))
        tape = ActivationTape(4, h, 2)
        for t in range(1, 10):
            x = rng.uniform(-1, 1, (1, 2))
            d = rng.uniform(-1, 1)
            h, _ = step_model(p, one_run(p), x, h, None, t)
            tape.push(x, d, readout(h, p.theta_out, LOSS_SQUARED), h)
            assert smoothed_loss(tape, p) == pytest.approx(
                naive_smoothed_loss(tape, p, LOSS_SQUARED), abs=1e-14
            )

    def test_empty_tape_rejected(self):
        p = random_srnn(2, 2, 0.3, np.random.default_rng(0))
        empty = ActivationTape(3, np.zeros(2), 2)
        for operation in (
            lambda: smoothed_loss(empty, p),
            lambda: tbptt_gradient(empty, one_run(p), p),
            lambda: instant_gradient(empty, one_run(p), p),
        ):
            with pytest.raises(ValueError, match="^tape is empty$"):
                operation()

    def test_single_run_operations_need_a_one_run_tape(self):
        # smoothed_loss and fd_gradient read one run; the gradients take a
        # tape of B runs, but an LSTM's needs the cells
        rng = np.random.default_rng(4)
        p = random_srnn(2, 2, 0.3, rng)
        tape = ActivationTape(3, np.zeros((2, 2)), 2)
        tape.push(np.zeros((2, 2)), np.zeros(2), np.zeros(2), np.zeros((2, 2)))
        for operation in (smoothed_loss, fd_gradient):
            with pytest.raises(ValueError, match="one-run"):
                operation(tape, p)
        lstm = random_lstm(2, 2, 0.3, rng)
        elman_tape = drive(p, 3, rng)
        for operation in (
            lambda: tbptt_gradient(elman_tape, one_run(lstm), lstm),
            lambda: instant_gradient(elman_tape, one_run(lstm), lstm),
            lambda: smoothed_loss(elman_tape, lstm),
        ):
            with pytest.raises(ValueError, match="anchor cell"):
                operation()


class TestSmoothedLoss:
    def test_zero_residual(self):
        p = SrnnParams(w=np.zeros((2, 2)), u=np.zeros((2, 2)), theta_out=np.zeros(2))
        tape = drive(p, 1, np.random.default_rng(0))
        tape2 = ActivationTape(1, tape.h[0], 2)
        tape2.push(tape.x[0], 0.0, 0.0, tape.h[1])
        assert smoothed_loss(tape2, p) == 0.0

    def test_two_step_arithmetic(self):
        # residuals 1 and 3 -> (0.5*1 + 0.5*9) / 2 = 2.5
        p = SrnnParams(w=np.zeros((1, 1)), u=np.zeros((1, 1)), theta_out=np.zeros(1))
        h = np.zeros((1, 1))
        tape = ActivationTape(2, h, 1)
        for t, d in ((1, -1.0), (2, -3.0)):
            h, _ = step_model(p, one_run(p), np.zeros((1, 1)), h, None, t)
            tape.push(np.zeros(1), d, 0.0, h)
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
        p = dataclasses.replace(p, theta_out=np.zeros(3))
        tape = drive(p, 6, rng)
        g = tbptt(tape, p)
        np.testing.assert_array_equal(g["w"], 0.0)
        np.testing.assert_array_equal(g["u"], 0.0)
        expected = -np.mean(tape.d[:, 0, None] * tape.h[1:, 0], axis=0)
        np.testing.assert_allclose(g["theta_out"], expected, atol=1e-15)

    def test_single_step_closed_form(self):
        # w = 1, one step from the zero anchor, n_h = n_x = 1:
        # L = 0.5 (d - theta*tanh(u x))^2 with W unused at the zero anchor.
        w0, u0, th0, x0, d0 = 0.3, 0.7, 1.2, 0.5, 0.4
        p = SrnnParams(w=np.array([[w0]]), u=np.array([[u0]]), theta_out=np.array([th0]))
        h0, x = np.zeros((1, 1)), np.array([[x0]])
        tape = ActivationTape(1, h0, 1)
        h1, _ = step_model(p, one_run(p), x, h0, None, 1)
        tape.push(x, d0, readout(h1, p.theta_out, LOSS_SQUARED), h1)
        g = tbptt(tape, p)
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
                g = tbptt(tape, p, "replay", kind)
                f = fd_gradient(tape, p, 1e-6, kind)
                assert max_rel_err(g, f) <= 1e-5

    def test_w1_replay_equals_instant_gradient(self):
        # With a single-record tape the smoothed loss is the newest loss and
        # replay backprop sees exactly the recorded activations.
        rng = np.random.default_rng(7)
        for name, make in MAKERS.items():
            p = make(4, 3, rng)
            tape = drive(p, 5, rng, capacity=1)
            g_replay = tbptt(tape, p, "replay")
            g_instant, failed = instant_gradient(tape, one_run(p), p)
            assert failed == [None]
            for key in g_replay:
                np.testing.assert_allclose(g_replay[key], g_instant[key][0], atol=1e-12)

    def test_overflow_identifies_timestep(self):
        rng = np.random.default_rng(8)
        p = random_srnn(3, 2, 0.4, rng)
        tape = drive(p, 4, rng)
        bad = dataclasses.replace(p, theta_out=np.array([np.inf, 0.0, 0.0]))
        # the member's first non-finite block, which the online loop raises
        # as a NumericOverflowError at its timestep
        with np.errstate(invalid="ignore"):
            _, failed = tbptt_gradient(tape, one_run(bad), bad)
        assert failed == ["gradient block 'w'"]


class TestCachedGradient:
    def test_cached_equals_replay_on_static_params(self):
        # When the tape was recorded under the same params the two modes
        # differentiate the same computation.
        rng = np.random.default_rng(9)
        for name, make in MAKERS.items():
            p = make(4, 3, rng)
            tape = drive(p, 8, rng)
            g_replay = tbptt(tape, p, "replay")
            g_cached = tbptt(tape, p, "cached")
            for key in g_replay:
                np.testing.assert_allclose(g_cached[key], g_replay[key], atol=1e-12)

    def test_modes_differ_after_param_drift(self):
        rng = np.random.default_rng(10)
        p = random_srnn(4, 3, 0.4, rng)
        tape = drive(p, 8, rng)
        q = random_srnn(4, 3, 0.4, rng)
        g_replay = tbptt(tape, q, "replay")
        g_cached = tbptt(tape, q, "cached")
        assert max_rel_err(g_cached, g_replay) > 1e-3

    def test_rejects_unknown_mode(self):
        rng = np.random.default_rng(11)
        p = random_srnn(2, 2, 0.3, rng)
        tape = drive(p, 2, rng)
        with pytest.raises(ValueError, match="^mode must be one of"):
            tbptt_gradient(tape, one_run(p), p, "other")


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
        g = tbptt(tape, p)
        np.testing.assert_allclose(f["theta_out"], g["theta_out"], atol=1e-9)

    def test_zero_net_symmetry(self):
        # With theta_out = 0 and all-zero weights, perturbing w is symmetric
        # through the odd tanh at the origin: the w gradient vanishes.
        p = SrnnParams(w=np.zeros((2, 2)), u=np.zeros((2, 2)), theta_out=np.zeros(2))
        rng = np.random.default_rng(14)
        tape = drive(p, 4, rng)
        f = fd_gradient(tape, p, 1e-5)
        np.testing.assert_allclose(f["w"], 0.0, atol=1e-12)


class TestBatchedFdOracle:
    """fd_gradient runs its probes as the members of one loss call per chunk
    of entries; each member must give the serial probe's bits."""

    # Blocks of 144 (lstm, cwrnn w) and 36 entries span several chunks of 32
    # and end on a partial one; srnn n_h 8 has w of exactly two chunks.
    @settings(max_examples=25)
    @example(arch="lstm", kind=LOSS_SQUARED, m=30, n_h=12, n_x=5, eps=1e-5, seed=0)
    @example(arch="cwrnn", kind=LOSS_CROSS_ENTROPY, m=23, n_h=12, n_x=5, eps=1e-5, seed=1)
    @example(arch="srnn", kind=LOSS_SQUARED, m=30, n_h=8, n_x=4, eps=1e-6, seed=2)
    @example(arch="srnn", kind=LOSS_CROSS_ENTROPY, m=1, n_h=6, n_x=1, eps=1e-3, seed=3)
    @given(
        arch=st.sampled_from(list(MAKERS)),
        kind=st.sampled_from([LOSS_SQUARED, LOSS_CROSS_ENTROPY]),
        m=st.integers(1, 30),
        n_h=st.integers(1, 12),
        n_x=st.integers(1, 5),
        eps=st.sampled_from([1e-8, 1e-6, 1e-5, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_serial_loop(self, arch, kind, m, n_h, n_x, eps, seed):
        rng = np.random.default_rng(seed)
        p = any_model(arch, n_h, n_x, rng)
        tape = drive(p, m + int(rng.integers(0, 3)), rng, kind, capacity=m)
        got = fd_gradient(tape, p, eps, kind)
        want = reference_fd_gradient(tape, p, eps, kind)
        assert list(got) == list(want)
        for name, g in want.items():
            assert bitwise(got[name], g), name

    @settings(max_examples=30)
    @given(
        arch=st.sampled_from(list(MAKERS)),
        kind=st.sampled_from([LOSS_SQUARED, LOSS_CROSS_ENTROPY]),
        batch=st.integers(1, 6),
        m=st.integers(1, 30),
        n_h=st.integers(1, 12),
        n_x=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_member_losses_equal_smoothed_loss(self, arch, kind, batch, m, n_h, n_x, seed):
        rng = np.random.default_rng(seed)
        members = [any_model(arch, n_h, n_x, rng) for _ in range(batch)]
        tape = drive(members[0], m + int(rng.integers(0, 3)), rng, kind, capacity=m)
        stacks = {
            name: np.stack([getattr(p, name) for p in members])
            for name, _ in param_blocks(members[0])
        }
        losses = gradients._smoothed_loss(tape, stacks, members[0], kind)
        assert losses.shape == (batch,)
        for b, p in enumerate(members):
            assert bitwise(losses[b], np.float64(smoothed_loss(tape, p, kind))), b
            assert bitwise(losses[b], np.float64(reference_smoothed_loss(tape, p, kind))), b


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
            g = tbptt(tape, p)
            assert np.linalg.norm(g["w"]) <= bound_w + 1e-9
            assert np.linalg.norm(g["u"]) <= bound_u + 1e-9


class TestLockstepKernel:
    """The batched Elman kernel against its B = 1 case and the FD oracle."""

    @settings(max_examples=40)
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
        members, tapes = [], []
        for _ in range(batch):
            if arch == "srnn":
                p = random_srnn(n_h, n_x, 0.4, rng)
            else:
                p = random_cwrnn(n_h, n_x, periods, 0.4, rng)
            members.append(p)
            # steps already evicted, per member: its own anchor and timesteps
            extra = int(rng.integers(0, 4))
            tapes.append(drive(p, m + extra, rng, kind, capacity=m))
            # drift the parameters so cached and replay differ
            members[-1] = dataclasses.replace(p, w=p.w * 0.9, theta_out=p.theta_out + 0.1)

        x, d, pred, h = (
            np.concatenate([getattr(t, name) for t in tapes], axis=1)
            for name in ("x", "d", "pred", "h")
        )
        ts = np.stack([t.ts for t in tapes], axis=1)
        grads, failed = elman_window_gradient(
            x, d, pred, h, ts,
            np.stack([p.w for p in members]), np.stack([p.u for p in members]),
            np.stack([p.theta_out for p in members]),
            mode, kind, np.full(m, 1.0 / m), members[0] if arch == "cwrnn" else None,
        )
        assert failed == [None] * batch
        for b, (p, tape) in enumerate(zip(members, tapes)):
            single = tbptt(tape, p, mode, kind)
            for name, g in single.items():
                assert np.array_equal(grads[name][b], g), name
        if mode == "replay":
            g = tbptt(tapes[0], members[0], "replay", kind)
            assert max_rel_err(g, fd_gradient(tapes[0], members[0], 1e-6, kind)) <= 1e-5

    @settings(max_examples=40)
    @given(
        batch=st.integers(1, 4),
        m=st.integers(1, 30),
        n_h=st.integers(1, 8),
        n_x=st.integers(1, 4),
        kind=st.sampled_from([LOSS_SQUARED, LOSS_CROSS_ENTROPY]),
        mode=st.sampled_from(["replay", "cached"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lstm_members_equal_single_tape(self, batch, m, n_h, n_x, kind, mode, seed):
        # The member-axis LSTM forward and backward give each member the bits
        # of its own one-member tape.
        rng = np.random.default_rng(seed)
        members, tapes = [], []
        for _ in range(batch):
            p = random_lstm(n_h, n_x, 0.4, rng)
            extra = int(rng.integers(0, 4))
            tapes.append(drive(p, m + extra, rng, kind, capacity=m))
            w = p.w.copy()
            w[n_h : 2 * n_h] *= 0.9  # the forget gate's rows
            members.append(dataclasses.replace(p, w=w, theta_out=p.theta_out + 0.1))
        x, d, pred, h, c = (
            np.concatenate([getattr(t, name) for t in tapes], axis=1)
            for name in ("x", "d", "pred", "h", "c")
        )
        gates = tuple(np.concatenate(g, axis=1) for g in zip(*(t.gates for t in tapes)))
        params = {
            name: np.stack([getattr(p, name) for p in members])
            for name, _ in param_blocks(members[0])
        }
        forward = lstm_forward(member_major(x), h[0], c[0], params["w"], params["u"], params["b"])
        grads, failed = lstm_window_gradient(
            x, d, pred, h, c, gates, params, mode, kind, np.full(m, 1.0 / m)
        )
        assert failed == [None] * batch
        for b, (p, tape) in enumerate(zip(members, tapes)):
            stacks = (p.w[None], p.u[None], p.b[None])
            alone = lstm_forward(member_major(tape.x), tape.h[0], tape.c[0], *stacks)
            for got, want in zip(forward, alone):
                assert np.array_equal(got[:, b], want[:, 0])
            for name, g in tbptt(tape, p, mode, kind).items():
                assert np.array_equal(grads[name][b], g), name
        if mode == "replay":
            g = tbptt(tapes[0], members[0], "replay", kind)
            assert max_rel_err(g, fd_gradient(tapes[0], members[0], 1e-5, kind)) <= 1e-5


class TestLstmKernelOperands:
    def test_parameter_stacks_reach_the_kernel(self, monkeypatch):
        # The online step, the window kernel and the finite-difference
        # oracle's loss hand the LSTM parameter stacks themselves to
        # lstm_forward as its gate stacks: no conversion layer between them.
        calls = []
        kernel = models.lstm_forward

        def recording(xb, h0, c0, w, u, b):
            calls.append((w, u, b))
            return kernel(xb, h0, c0, w, u, b)

        rng = np.random.default_rng(29)
        p = random_lstm(3, 2, 0.4, rng)
        tape = drive(p, 6, rng, capacity=4)
        monkeypatch.setattr(models, "lstm_forward", recording)
        monkeypatch.setattr(gradients, "lstm_forward", recording)
        one = {name: a[None] for name, a in param_blocks(p)}
        two = {name: np.stack([a, 0.5 * a]) for name, a in param_blocks(p)}
        x, h, c = rng.uniform(-1.0, 1.0, (2, 2)), np.zeros((2, 3)), np.zeros((2, 3))
        weights = np.full(4, 0.25)
        runs = [
            (two, lambda: models.step_model(p, two, x, h, c, 7)),
            (one, lambda: lstm_window_gradient(
                tape.x, tape.d, tape.pred, tape.h, tape.c, tape.gates, one, "replay",
                LOSS_SQUARED, weights,
            )),
            (two, lambda: gradients._smoothed_loss(tape, two, p, LOSS_SQUARED)),
        ]
        for blocks, run in runs:
            calls.clear()
            run()
            assert len(calls) == 1
            w, u, b = calls[0]
            assert w is blocks["w"] and u is blocks["u"] and b is blocks["b"]


class _RecordingNumpy:
    """Stands in for numpy in a kernel module: records the array operands of
    every call passed out= (and of every copyto), then makes the call."""

    def __init__(self, calls):
        self._calls = calls

    def __getattr__(self, name):
        f = getattr(np, name)
        if not callable(f) or isinstance(f, type):
            return f

        def recorded(*args, **kwargs):
            if "out" in kwargs or name == "copyto":
                operands = args + tuple(kwargs.get(k) for k in ("out", "where"))
                self._calls.append([a for a in operands if isinstance(a, np.ndarray)])
            return f(*args, **kwargs)

        return recorded


class TestLoopLayout:
    """Every per-step block a kernel loop steps through, and every out=
    buffer it writes, is C-contiguous: a strided block takes numpy's slow
    path. The loop-invariant recurrent matrices (w, and its transposed view
    in the backward) are exempt, like the LSTM's gate columns of a
    contiguous (B, 4 n_h) step block."""

    N_H, N_X = 4, 3

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for module in (gradients, models):
            monkeypatch.setattr(module, "np", _RecordingNumpy(calls))
        return calls

    def strided(self, calls, gate_columns=False):
        """The recorded operands that break the rule, by shape and strides."""
        bad = []
        for operands in calls:
            for a in operands:
                n, k = self.N_H, a.itemsize
                matrix = a.ndim == 3 and a.shape[1:] in ((n, n), (n, 4 * n), (4 * n, n))
                gate = gate_columns and a.ndim == 2 and a.strides == (4 * n * k, k)
                if not (a.flags.c_contiguous or matrix or gate):
                    bad.append((a.shape, a.strides))
        return bad

    def batch_tape(self, batch, m, rng, lstm=False):
        h0 = np.zeros((batch, self.N_H))
        tape = ActivationTape(m, h0, self.N_X, h0 if lstm else None)
        for _ in range(m + 2):  # two steps evicted: the anchor moves
            gates = None
            if lstm:
                gates = LstmGates(*rng.uniform(0.1, 0.9, (5, batch, self.N_H)))
            tape.push(rng.normal(size=(batch, self.N_X)), rng.normal(size=batch),
                      rng.normal(size=batch), rng.uniform(-0.9, 0.9, (batch, self.N_H)), gates)
        return tape

    @pytest.mark.parametrize("mode", ["replay", "cached"])
    @pytest.mark.parametrize("arch", ["srnn", "cwrnn", "lstm"])
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_window_kernels(self, batch, arch, mode, calls):
        # the tape as it is, then with a member dropped, as a batch drops one
        rng = np.random.default_rng(batch)
        family = MAKERS[arch](self.N_H, self.N_X, rng)
        tape = self.batch_tape(batch, 7, rng, lstm=arch == "lstm")
        params = {name: np.stack([a] * batch) for name, a in param_blocks(family)}
        tbptt_gradient(tape, params, family, mode, LOSS_SQUARED)
        kept = [b for b in range(batch) if b != 1]
        tape.keep(kept)
        params = {name: a[kept] for name, a in params.items()}
        tbptt_gradient(tape, params, family, mode, LOSS_SQUARED)
        assert calls
        assert self.strided(calls, gate_columns=arch == "lstm") == []

    @pytest.mark.parametrize("arch", ["srnn", "cwrnn"])
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_lockstep_loop_with_paired_probe(self, batch, arch, calls):
        # the online steps, the replays and the smoothness probe's paired
        # 2B-member call of run_batch
        cfg = ExperimentConfig(
            task="synthetic", features=self.N_X - 1, steps=12, model=arch, n_h=self.N_H,
            periods=(1, 2), optimizer="wogd", window=5, record_regret=True,
            record_smoothness=True,
        )
        run_batch(cfg, range(1, batch + 1))
        assert any(a.shape[:1] == (2 * batch,) for operands in calls for a in operands)
        assert self.strided(calls) == []
