"""Forward-pass tests: scalar-loop oracles, saturation cases, state bounds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wogd.linalg import spectral_norm
from wogd.models import (
    CwrnnParams,
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
    sigmoid,
    step_model,
)
from wogd.tasks import LOSS_CROSS_ENTROPY, LOSS_SQUARED


def scalar_srnn_step(w, u, h, x):
    """Entrywise re-implementation with explicit loops."""
    n_h = len(h)
    out = np.zeros(n_h)
    for i in range(n_h):
        acc = 0.0
        for j in range(n_h):
            acc += w[i][j] * h[j]
        for j in range(len(x)):
            acc += u[i][j] * x[j]
        out[i] = math.tanh(acc)
    return out


def scalar_dot(a, b):
    acc = 0.0
    for ai, bi in zip(a, b):
        acc += ai * bi
    return acc


def scalar_sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def step(p, h, x, t, c=None):
    """One online step of one run at timestep t: step_model on B = 1 stacks,
    from the state h and, for the LSTM, the cell c, (n_h,). Returns the new
    state (n_h,) and, for the LSTM, the step's gates as (1, n_h) arrays."""
    blocks = {name: a[None] for name, a in param_blocks(p)}
    c = None if c is None else np.asarray(c)[None]
    h, gates = step_model(p, blocks, np.asarray(x)[None], np.asarray(h)[None], c, t)
    return h[0], gates


def read(p, h, loss_kind):
    """The readout of one state h (n_h,) under p.theta_out, as a float."""
    return float(readout(np.asarray(h)[None], p.theta_out, loss_kind)[0])


def reference_random_lstm(n_h, n_x, std, rng):
    """The per-gate draw random_lstm stacks: blocks w_k (n_h, n_h),
    u_k (n_h, n_x) and b_k (n_h,) drawn gate by gate in the order i, f, o, g,
    then theta_out (n_h,)."""
    vals = {}
    for gate in "ifog":
        vals[f"w_{gate}"] = rng.normal(0.0, std, (n_h, n_h))
        vals[f"u_{gate}"] = rng.normal(0.0, std, (n_h, n_x))
        vals[f"b_{gate}"] = rng.normal(0.0, std, n_h)
    vals["theta_out"] = rng.normal(0.0, std, n_h)
    return vals


class TestSrnn:
    def test_zero_weights(self):
        p = SrnnParams(w=np.zeros((3, 3)), u=np.zeros((3, 2)), theta_out=np.zeros(3))
        h, _ = step(p, np.zeros(3), np.array([0.5, -0.5]), 1)
        np.testing.assert_array_equal(h, np.zeros(3))

    def test_scalar_closed_form(self):
        p = SrnnParams(w=np.array([[0.0]]), u=np.array([[1.0]]), theta_out=np.array([1.0]))
        h, _ = step(p, np.zeros(1), np.array([1.0]), 1)
        assert h[0] == pytest.approx(0.7615941559557649, abs=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = random_srnn(3, 4, 0.5, rng)
            h = rng.uniform(-1, 1, 3)
            x = rng.uniform(-1, 1, 4)
            out, _ = step(p, h, x, 6)
            np.testing.assert_allclose(out, scalar_srnn_step(p.w, p.u, h, x), atol=1e-14)

    def test_predict(self):
        p = SrnnParams(w=np.zeros((3, 3)), u=np.zeros((3, 1)), theta_out=np.zeros(3))
        h = np.array([0.5, -0.2, 0.9])
        assert read(p, h, LOSS_SQUARED) == 0.0
        p2 = SrnnParams(w=p.w, u=p.u, theta_out=np.array([1.0, 0.0, 0.0]))
        assert read(p2, h, LOSS_SQUARED) == pytest.approx(0.5)

    def test_predict_matches_scalar_dot(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_srnn(6, 2, 0.3, rng)
            h = rng.uniform(-1, 1, 6)
            assert read(p, h, LOSS_SQUARED) == pytest.approx(scalar_dot(p.theta_out, h), abs=1e-15)


class TestPredictSigmoid:
    def test_zero_readout(self):
        p = random_srnn(4, 2, 0.1, np.random.default_rng(0))
        p = SrnnParams(w=p.w, u=p.u, theta_out=np.zeros(4))
        assert read(p, np.full(4, 0.3), LOSS_CROSS_ENTROPY) == 0.5

    def test_saturation(self):
        p = SrnnParams(w=np.zeros((1, 1)), u=np.zeros((1, 1)), theta_out=np.array([50.0]))
        assert read(p, np.array([1.0]), LOSS_CROSS_ENTROPY) >= 1.0 - 1e-17

    def test_matches_scalar(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_srnn(5, 2, 0.4, rng)
            h = rng.uniform(-1, 1, 5)
            expected = scalar_sigmoid(scalar_dot(p.theta_out, h))
            assert read(p, h, LOSS_CROSS_ENTROPY) == pytest.approx(expected, abs=1e-15)


class TestLstm:
    def test_all_zero(self):
        p = random_lstm(3, 2, 0.0, np.random.default_rng(0))
        h, gates = step(p, np.zeros(3), np.array([1.0, -1.0]), 1, c=np.zeros(3))
        np.testing.assert_allclose(gates.i, 0.5)
        np.testing.assert_allclose(gates.f, 0.5)
        np.testing.assert_allclose(gates.o, 0.5)
        np.testing.assert_allclose(gates.g, 0.0)
        np.testing.assert_allclose(gates.c_new, 0.0)
        np.testing.assert_allclose(h, 0.0)

    def test_forget_gate_saturation(self):
        rng = np.random.default_rng(0)
        p = random_lstm(3, 2, 0.0, rng)
        b = p.b.copy()
        b[3:6] = 50.0  # the forget gate's rows
        p = LstmParams(w=p.w, u=p.u, b=b, theta_out=p.theta_out)
        c = np.ones(3)
        _, gates = step(p, np.zeros(3), np.zeros(2), 1, c=c)
        np.testing.assert_allclose(gates.c_new[0], c, atol=1e-15)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            p = random_lstm(3, 2, 0.4, rng)
            h = rng.uniform(-0.9, 0.9, 3)
            c = rng.uniform(-1.5, 1.5, 3)
            x = rng.uniform(-1, 1, 2)
            h_new, gates = step(p, h, x, 3, c=c)
            for idx in range(3):
                # gate k's unit idx is row k * n_h + idx of the stacks
                zi, zf, zo, zg = (
                    scalar_dot(p.w[row], h) + scalar_dot(p.u[row], x) + p.b[row]
                    for row in (k * 3 + idx for k in range(4))
                )
                ci = scalar_sigmoid(zf) * c[idx] + scalar_sigmoid(zi) * math.tanh(zg)
                hi = scalar_sigmoid(zo) * math.tanh(ci)
                assert gates.c_new[0, idx] == pytest.approx(ci, abs=1e-14)
                assert h_new[idx] == pytest.approx(hi, abs=1e-14)

    @settings(max_examples=60)
    @given(
        n_h=st.integers(1, 12),
        n_x=st.integers(1, 6),
        std=st.sampled_from([0.0, 0.1, 0.4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draw_order_equals_per_gate_reference(self, n_h, n_x, std, seed):
        # random_lstm draws as the per-gate reference does and stacks the
        # gates in the order i, f, o, g: every seed's weights, bitwise.
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        p = random_lstm(n_h, n_x, std, rng)
        ref = reference_random_lstm(n_h, n_x, std, ref_rng)
        for k in "wub":
            want = np.concatenate([ref[f"{k}_{gate}"] for gate in "ifog"])
            assert getattr(p, k).tobytes() == want.tobytes(), k
        assert p.theta_out.tobytes() == ref["theta_out"].tobytes()
        assert rng.random() == ref_rng.random()  # the same number of draws

    @pytest.mark.parametrize("name", ["w", "u", "b", "theta_out"])
    def test_rejects_bad_blocks(self, name):
        blocks = dict(param_blocks(random_lstm(3, 2, 0.1, np.random.default_rng(8))))
        assert LstmParams(**blocks).n_h == 3
        a = blocks[name]
        for bad in (a[:-1], np.concatenate([a, a[:1]]), a[..., None]):
            with pytest.raises(ValueError, match=f"^{name} has shape"):
                LstmParams(**{**blocks, name: bad})


class TestCwrnn:
    def test_block_schedule_t1(self):
        rng = np.random.default_rng(4)
        p = random_cwrnn(4, 2, (1, 2), 0.4, rng)
        h0 = rng.uniform(-0.5, 0.5, 4)
        h, _ = step(p, h0, rng.uniform(-1, 1, 2), 1)
        # block 1 (period 1) updates; block 2 (period 2) holds at t=1
        assert not np.allclose(h[:2], h0[:2])
        np.testing.assert_array_equal(h[2:], h0[2:])

    def test_all_blocks_update_at_t4(self):
        rng = np.random.default_rng(5)
        p = random_cwrnn(6, 2, (1, 2, 4), 0.4, rng)
        h0 = rng.uniform(-0.5, 0.5, 6)
        x = rng.uniform(-1, 1, 2)
        h, _ = step(p, h0, x, 4)
        assert np.all(p.active_units(4))
        masked = p.w * p.recurrent_mask()
        np.testing.assert_allclose(h, np.tanh(masked @ h0 + p.u @ x), atol=1e-15)

    def test_masked_weight_equivalence(self):
        # Same output as an SRNN step on the masked weights with the rows of
        # inactive blocks overwritten by the previous state.
        rng = np.random.default_rng(6)
        for t in (1, 2, 3, 4, 5, 8):
            p = random_cwrnn(6, 3, (1, 2, 4), 0.5, rng)
            h = rng.uniform(-0.8, 0.8, 6)
            x = rng.uniform(-1, 1, 3)
            out, _ = step(p, h, x, t)
            srnn = SrnnParams(w=p.w * p.recurrent_mask(), u=p.u, theta_out=p.theta_out)
            ref, _ = step(srnn, h, x, t)
            expected = np.where(p.active_units(t), ref, h)
            np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_all_periods_one_is_srnn(self):
        rng = np.random.default_rng(7)
        p = random_cwrnn(4, 2, (1, 1), 0.5, rng)
        np.testing.assert_array_equal(p.recurrent_mask(), np.ones((4, 4)))
        srnn = SrnnParams(w=p.w, u=p.u, theta_out=p.theta_out)
        h = rng.uniform(-0.5, 0.5, 4)
        x = rng.uniform(-1, 1, 2)
        np.testing.assert_array_equal(step(p, h, x, 1)[0], step(srnn, h, x, 1)[0])

    def test_rejects_bad_blocks(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            CwrnnParams(
                w=np.zeros((5, 5)), u=np.zeros((5, 2)), theta_out=np.zeros(5), periods=(1, 2)
            )
        with pytest.raises(ValueError):
            random_cwrnn(4, 2, (2, 1), 0.1, rng)


class TestElmanParams:
    """CwrnnParams is an SrnnParams with periods: both check the Elman triple
    the same way."""

    FAMILIES = {
        "srnn": SrnnParams,
        "cwrnn": lambda **blocks: CwrnnParams(**blocks, periods=(1, 2)),
    }

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("name", ["w", "theta_out"])
    def test_rejects_bad_blocks(self, family, name):
        make = self.FAMILIES[family]
        blocks = dict(param_blocks(random_srnn(4, 2, 0.1, np.random.default_rng(8))))
        assert make(**blocks).n_h == 4
        a = blocks[name]
        for bad in (a[:-1], np.concatenate([a, a[:1]]), a[..., None]):
            with pytest.raises(ValueError, match=f"^{name} has shape"):
                make(**{**blocks, name: bad})


class TestStateBounds:
    def test_hidden_stays_in_unit_box(self):
        rng = np.random.default_rng(9)
        srnn = random_srnn(5, 3, 2.0, rng)
        lstm = random_lstm(5, 3, 2.0, rng)
        cw = random_cwrnn(6, 3, (1, 2, 4), 2.0, rng)
        h1, h2, c2, h3 = np.zeros(5), np.zeros(5), np.zeros(5), np.zeros(6)
        for t in range(1, 60):
            x = rng.uniform(-1, 1, 3) * 10.0  # arbitrary finite inputs
            h1, _ = step(srnn, h1, x, t)
            h2, gates = step(lstm, h2, x, t, c=c2)
            c2 = gates.c_new[0]
            h3, _ = step(cw, h3, x, t)
            for h in (h1, h2, h3):
                assert np.all(np.abs(h) <= 1.0)


class TestStatePerturbationBound:
    def test_contraction_inequality(self):
        # For weight pairs with spectral norms <= lam and a shared input
        # sequence, state distance stays below
        # sqrt(n_h)/(1-lam) |dW|_F + sqrt(n_x)/(1-lam) |dU|_F at every step.
        rng = np.random.default_rng(10)
        n_h, n_x, length = 6, 4, 50
        trials_per_lam = 67  # ~200 total across the three lam values
        for lam in (0.5, 0.9, 0.95):
            for _ in range(trials_per_lam):
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
                    h, _ = step_model(family, pair, rng.uniform(-1, 1, (1, n_x)), h, None, t)
                    assert np.linalg.norm(h[0] - h[1]) <= bound


class TestOnlineStepIsWindowCase:
    """step_model is the m = 1 case of its family's window kernel: chaining
    it m times replays the window the gradients replay."""

    @settings(max_examples=80)
    @given(
        arch=st.sampled_from(["srnn", "cwrnn"]),
        batch=st.integers(1, 3),
        m=st.integers(1, 20),
        n_h=st.integers(1, 6),
        n_x=st.integers(1, 4),
        t0=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_elman_window_equals_chained_steps(self, arch, batch, m, n_h, n_x, t0, seed):
        rng = np.random.default_rng(seed)
        periods = (1, 2) if n_h % 2 == 0 else (2,)
        members = [
            random_srnn(n_h, n_x, 0.4, rng) if arch == "srnn"
            else random_cwrnn(n_h, n_x, periods, 0.4, rng)
            for _ in range(batch)
        ]
        x = rng.uniform(-1.0, 1.0, (m, batch, n_x))
        h0 = rng.uniform(-1.0, 1.0, (batch, n_h))
        ts = np.arange(t0 + 1, t0 + m + 1)
        blocks = {name: np.stack([getattr(p, name) for p in members]) for name in ("w", "u")}
        w, active = clockwork(blocks["w"], members[0], ts)
        h = elman_forward(member_major(x), h0[..., None], w, blocks["u"], active)
        state = h0
        for i in range(m):
            # the batch's online step at timestep t0 + i + 1
            state, _ = step_model(members[0], blocks, x[i], state, None, t0 + i + 1)
            window = h[i + 1, :, :, 0]
            if m == 1 or n_x == 1:
                assert np.array_equal(state, window)
            else:
                # numpy computes the window's input products u x_t as one
                # matrix-matrix product and a step's as a matrix-vector
                # product; with n_x >= 2 their sums may round differently.
                eps = np.finfo(np.float64).eps
                np.testing.assert_allclose(state, window, rtol=0, atol=64 * m * eps)

    @settings(max_examples=60)
    @given(
        m=st.integers(1, 20),
        n_h=st.integers(1, 6),
        n_x=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lstm_window_equals_chained_steps(self, m, n_h, n_x, seed):
        rng = np.random.default_rng(seed)
        p = random_lstm(n_h, n_x, 0.4, rng)
        x = rng.uniform(-1.0, 1.0, (m, n_x))
        h0, c0 = rng.uniform(-1.0, 1.0, n_h), rng.normal(size=n_h)
        stacks = (p.w[None], p.u[None], p.b[None])
        h, c, gi, gf, go, gg, _ = lstm_forward(x[None], h0[None], c0[None], *stacks)
        blocks = {name: a[None] for name, a in param_blocks(p)}
        state, cell = h0[None], c0[None]
        for i in range(m):
            state, gates = step_model(p, blocks, x[i][None], state, cell, i + 1)
            cell = gates.c_new
            pairs = [
                (state, h[i + 1]), (cell, c[i + 1]),
                (gates.i, gi[i]), (gates.f, gf[i]), (gates.o, go[i]), (gates.g, gg[i]),
            ]
            for got, window in pairs:
                assert np.array_equal(got, window)

    @settings(max_examples=60)
    @given(z=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
    def test_sigmoid_bounds_and_symmetry(self, z):
        z = np.array(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                up, down = sigmoid(z), sigmoid(-z)
        assert np.all((up >= 0.0) & (up <= 1.0))
        assert np.all(np.abs(up + down - 1.0) <= 2.0**-52)
        assert sigmoid(0.0) == 0.5
