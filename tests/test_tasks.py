"""Data plumbing tests: CSV streaming, scaling, bit streams, loss definitions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wogd.tasks import (
    BinaryAddState,
    CROSS_ENTROPY_CLAMP,
    CsvFormatError,
    LOSS_CROSS_ENTROPY,
    LOSS_SQUARED,
    add_step,
    binary_add_stream,
    correct_streaks,
    load_csv_stream,
    losses,
    scaled_stream,
    synthetic_regression_stream,
)


def scalar_cross_entropy(prediction: float, target: float) -> float:
    """Reference: the clamped cross-entropy of one prediction, in math.log."""
    p_hat = min(max(prediction, CROSS_ENTROPY_CLAMP), 1.0 - CROSS_ENTROPY_CLAMP)
    return -target * math.log(p_hat) - (1.0 - target) * math.log(1.0 - p_hat)


class TestLosses:
    def test_squared_zero_residual(self):
        np.testing.assert_array_equal(losses(np.array([1.5, -2.0]), np.array([1.5, -2.0]),
                                             LOSS_SQUARED), [0.0, 0.0])

    def test_squared_arithmetic(self):
        assert losses(np.array([3.0]), np.array([1.0]), LOSS_SQUARED)[0] == 2.0

    def test_cross_entropy_closed_form(self):
        out = losses(np.array([0.5, 0.5]), np.array([1.0, 0.0]), LOSS_CROSS_ENTROPY)
        np.testing.assert_allclose(out, math.log(2.0), rtol=0, atol=1e-12)

    def test_cross_entropy_clamps_saturated(self):
        out = losses(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), LOSS_CROSS_ENTROPY)
        assert out.shape == (1, 2)
        assert np.all(np.isfinite(out))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown loss kind"):
            losses(np.zeros(2), np.zeros(2), "absolute")

    @given(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
                 min_size=1, max_size=20)
    )
    def test_cross_entropy_matches_scalar_reference(self, cases):
        preds, targets = (np.array(v) for v in zip(*cases))
        out = losses(preds, targets, LOSS_CROSS_ENTROPY)
        ref = np.array([scalar_cross_entropy(p, d) for p, d in cases])
        np.testing.assert_allclose(out, ref, rtol=2 * np.finfo(float).eps, atol=0)

    @given(
        st.lists(st.tuples(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150)),
                 min_size=1, max_size=20)
    )
    def test_squared_is_half_the_squared_error(self, cases):
        """2 * losses is bitwise r * r wherever 0.5 * r * r is not subnormal."""
        preds, targets = (np.array(v) for v in zip(*cases))
        r = preds - targets
        normal = (r * r == 0.0) | (r * r >= 2.0 * np.finfo(float).tiny)
        out = 2.0 * losses(preds, targets, LOSS_SQUARED)
        np.testing.assert_array_equal(out[normal], (r * r)[normal])


class TestLoadCsv:
    def test_plain_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,2,3\n4,5,6\n7,8,9\n")
        data = load_csv_stream(path)
        assert data.shape == (3, 3)
        np.testing.assert_array_equal(data[0], [1, 2, 3])
        np.testing.assert_array_equal(data[2], [7, 8, 9])

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("x1,x2,target\n1,2,3\n4,5,6\n")
        data = load_csv_stream(path)
        assert data.shape == (2, 3)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv_stream(path)
        assert err.value.line == 2

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,3\n4,oops,6\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv_stream(path)
        assert err.value.line == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv_stream(tmp_path / "nope.csv")

    def test_fixture_file(self):
        from pathlib import Path

        data = load_csv_stream(Path(__file__).parent / "data" / "fixture_regression.csv")
        assert data.shape[1] == 4  # 3 features + target
        assert data.shape[0] >= 100


class TestScaling:
    def test_midpoint_maps_to_zero(self):
        records = np.array([[0.0, 1.0], [10.0, 3.0], [5.0, 2.0]])
        x, _ = scaled_stream(records, n_h=4)
        np.testing.assert_allclose(x[:, 0], [-1.0, 1.0, 0.0], atol=1e-12)

    def test_target_endpoint(self):
        records = np.column_stack([np.linspace(0, 1, 5), np.linspace(-2, 2, 5)])
        _, d = scaled_stream(records, n_h=10)
        np.testing.assert_allclose(d[[-1, 0]], [math.sqrt(10.0), -math.sqrt(10.0)])
        assert d[2] == pytest.approx(0.0, abs=1e-12)

    def test_constant_column_maps_to_zero(self):
        records = np.array([[7.0, 1.0, 0.0], [7.0, 2.0, 1.0], [7.0, 3.0, 2.0]])
        x, _ = scaled_stream(records, n_h=4)
        assert np.all(x[:, 0] == 0.0)
        assert not np.all(x[:, 1] == 0.0)
        _, d = scaled_stream(records, n_h=4, target_column=0)
        assert np.all(d == 0.0)

    def test_stream_shape_and_ranges(self):
        rng = np.random.default_rng(0)
        records = rng.normal(0.0, 5.0, (40, 4))
        x, d = scaled_stream(records, n_h=9)
        assert x.shape == (40, 4)  # 3 scaled features + bias
        assert d.shape == (40,)
        assert np.all(x[:, -1] == 1.0)
        assert np.all(np.abs(x[:, :-1]) <= 1.0 + 1e-12)
        assert np.all(np.abs(d) <= 3.0 + 1e-12)
        # record order is kept: permuted records give the permuted stream
        order = rng.permutation(40)
        x_perm, d_perm = scaled_stream(records[order], n_h=9)
        np.testing.assert_array_equal(x_perm, x[order])
        np.testing.assert_array_equal(d_perm, d[order])

    def test_target_column_picks_the_target(self):
        records = np.array([[0.0, 4.0, 1.0], [2.0, 8.0, 3.0], [1.0, 6.0, 2.0]])
        x, d = scaled_stream(records, n_h=4, target_column=1)
        np.testing.assert_allclose(d, [-2.0, 2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(x[:, :-1], [[-1.0, -1.0], [1.0, 1.0], [0.0, 0.0]], atol=1e-12)

    @pytest.mark.parametrize("column", [3, -4])
    def test_target_column_out_of_range(self, column):
        with pytest.raises(ValueError, match=f"^target column {column} out of range for 3 columns$"):
            scaled_stream(np.ones((4, 3)), n_h=4, target_column=column)

    def test_needs_two_records(self):
        with pytest.raises(ValueError, match="need at least 2 records"):
            scaled_stream(np.ones((1, 3)), n_h=4)


class TestBinaryAddition:
    def test_carry_arithmetic(self):
        assert add_step([1, 1], 0) == (0, 1)
        assert add_step([0, 0], 0) == (0, 0)
        assert add_step([1, 1], 1) == (1, 1)
        assert add_step([1, 1, 1], 2) == (1, 2)

    def test_stream_reproducible(self):
        a = binary_add_stream(BinaryAddState(2, np.random.default_rng(99)), 200)
        b = binary_add_stream(BinaryAddState(2, np.random.default_rng(99)), 200)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_chunks_continue_the_stream(self):
        whole = binary_add_stream(BinaryAddState(3, np.random.default_rng(4)), 300)
        state = BinaryAddState(3, np.random.default_rng(4))
        parts = [binary_add_stream(state, k) for k in (100, 0, 200)]
        np.testing.assert_array_equal(np.concatenate([x for x, _ in parts]), whole[0])
        np.testing.assert_array_equal(np.concatenate([d for _, d in parts]), whole[1])

    def test_sample_ranges(self):
        x, d = binary_add_stream(BinaryAddState(3, np.random.default_rng(5)), 300)
        assert x.shape == (300, 4) and d.shape == (300,)
        assert set(np.unique(x[:, :-1])) <= {-1.0, 1.0}
        assert np.all(x[:, -1] == 1.0)
        assert set(np.unique(d)) <= {0.0, 1.0}

    def test_big_integer_oracle(self):
        # The emitted bit stream must equal the binary expansion of the sum of
        # the summand integers (streamed LSB first), checked over 10^4 steps.
        for n in (2, 3):
            state = BinaryAddState(n, np.random.default_rng(123))
            steps = 10_000
            x, d = binary_add_stream(state, steps)
            addends = [0] * n
            out_bits = []
            for k in range(steps):
                bits = ((x[k, :-1] + 1.0) / 2.0).astype(int)  # unscale to {0,1}
                for j in range(n):
                    addends[j] |= int(bits[j]) << k
                out_bits.append(int(d[k]))
            total = sum(addends)
            emitted = sum(b << k for k, b in enumerate(out_bits))
            mask = (1 << steps) - 1
            assert emitted == (total & mask)
            assert state.carry == (total >> steps)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            BinaryAddState(4, np.random.default_rng(0))


class TestCorrectStreaks:
    """The streak update of run_batch over its members' (B,) rows; the
    cutoff is the loop's (TestSustainability in test_harness.py)."""

    @staticmethod
    def streaks(preds, targs):
        """The streaks after each step of (T, B) predictions and targets."""
        s = np.zeros(preds.shape[1], dtype=np.int64)
        out = []
        for p, d in zip(preds, targs):
            s = correct_streaks(s, p, d)
            out.append(s)
        return np.array(out)

    def test_all_correct(self):
        # output > 0.5 means 1: 0.5 itself is a correct 0
        preds = np.tile([0.9, 0.1, 0.5], (1500, 1))
        targs = np.tile([1.0, 0.0, 0.0], (1500, 1))
        want = np.repeat(np.arange(1, 1501)[:, None], 3, axis=1)
        np.testing.assert_array_equal(self.streaks(preds, targs), want)

    def test_single_error_restarts_streak(self):
        preds = np.full((2000, 2), 0.9)
        targs = np.ones((2000, 2))
        preds[499, 0] = 0.1  # member 0 wrong at t = 500
        s = self.streaks(preds, targs)
        np.testing.assert_array_equal(s[:, 1], np.arange(1, 2001))
        assert list(s[498:501, 0]) == [499, 0, 1]
        # a streak of 1000 completes at t = 1500, and its first step is t = 501
        t = int(np.argmax(s[:, 0] >= 1000)) + 1
        assert (t, t - 1000 + 1) == (1500, 501)

    def test_alternating_never_reaches_two(self):
        preds = np.tile([0.9, 0.1], 600)[:, None]
        targs = np.ones((1200, 1))
        assert self.streaks(preds, targs).max() == 1


class TestSyntheticStream:
    def test_ranges_and_determinism(self):
        a = synthetic_regression_stream(3, 100, np.random.default_rng(7), n_h=10)
        b = synthetic_regression_stream(3, 100, np.random.default_rng(7), n_h=10)
        radius = math.sqrt(10.0)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        x, d = a
        assert x.shape == (100, 4) and d.shape == (100,)
        assert np.all(np.abs(d) <= radius)
        assert np.all(x[:, -1] == 1.0)
