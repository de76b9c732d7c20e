"""Bound calculators, regret accounting, and the smoothness estimator."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wogd.analysis import (
    RegretLedger,
    SmoothnessEstimate,
    estimate_smoothness,
    regret_bound,
    smoothness_bounds,
    write_csv,
)
from wogd.models import param_blocks, random_srnn


class TestSmoothnessBounds:
    def test_reference_values(self):
        sb = smoothness_bounds(10, 9, 0.95)
        assert sb.beta_theta == pytest.approx(40.0 * math.sqrt(10.0) / 0.05**3, rel=1e-12)
        assert sb.beta_theta == pytest.approx(1.0119288e6, rel=1e-6)
        assert sb.beta_mu == pytest.approx(9.107360e5, rel=1e-6)
        assert sb.beta_theta_mu == pytest.approx(9.6e5, rel=1e-12)
        assert sb.beta == sb.beta_theta

    def test_unit_denominator(self):
        sb = smoothness_bounds(4, 7, 0.0)
        assert sb.beta_theta == pytest.approx(4 * 4 * 2.0)

    def test_symmetric_small_case(self):
        sb = smoothness_bounds(1, 1, 0.5)
        assert sb.beta_theta == sb.beta_mu == sb.beta_theta_mu == pytest.approx(32.0)
        assert sb.beta == pytest.approx(32.0)

    def test_monotone_in_lambda(self):
        lo = smoothness_bounds(5, 3, 0.5)
        hi = smoothness_bounds(5, 3, 0.9)
        assert hi.beta > lo.beta
        assert hi.beta_theta > lo.beta_theta

    def test_domain(self):
        with pytest.raises(ValueError):
            smoothness_bounds(5, 3, 1.0)
        with pytest.raises(ValueError):
            smoothness_bounds(0, 3, 0.5)


class TestRegretBound:
    def test_reference_value(self):
        assert regret_bound(0.03, 200, 7000, 10) == pytest.approx(
            (16.0 * math.sqrt(10.0) / 0.03) * 36.0, rel=1e-12
        )
        assert regret_bound(0.03, 200, 7000, 10) == pytest.approx(60715.7, rel=1e-4)

    def test_window_equals_horizon(self):
        assert regret_bound(0.5, 40, 40, 9) == pytest.approx(2 * 16.0 * 3.0 / 0.5)

    def test_unit_case(self):
        assert regret_bound(1.0, 17, 17, 1) == pytest.approx(32.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            regret_bound(0.0, 10, 100, 4)


def stacked(blocks):
    """The one-run (B = 1) stacks of a dict of blocks or of a parameter object."""
    items = blocks.items() if isinstance(blocks, dict) else param_blocks(blocks)
    return {k: np.asarray(a)[None] for k, a in items}


def serial_ledger(projected_steps) -> dict[str, list]:
    """One run's ledger lists written out, as a reference: np.sum per matrix
    and the running sum R(t) = (R(t - 1) + sq_theta) + sq_mu."""
    led = {name: [] for name in RegretLedger.NUMERIC}
    for pg in projected_steps:
        sq_theta, sq_mu = float(np.sum(pg["w"] * pg["w"])), float(np.sum(pg["u"] * pg["u"]))
        total = (led["regret"][-1] if led["regret"] else 0.0) + sq_theta + sq_mu
        for name, value in zip(RegretLedger.NUMERIC, (sq_theta, sq_mu, total)):
            led[name].append(value)
        led["normalized"].append(total / len(led["regret"]))
    return led


def serial_smoothness(g0, g1, p0, p1) -> SmoothnessEstimate:
    """One run's smoothness sample written out, as a reference: np.linalg.norm
    ratios, None for a block that did not move."""
    ratios = []
    for k in ("w", "u"):
        moved = float(np.linalg.norm(p1[k] - p0[k]))
        ratios.append(None if moved == 0.0 else float(np.linalg.norm(g1[k] - g0[k])) / moved)
    return SmoothnessEstimate(*ratios)


class TestRegretLedger:
    def make(self):
        return RegretLedger()

    def test_zero_gradients(self):
        led = self.make()
        zero = {"w": np.zeros((3, 3)), "u": np.zeros((3, 2)), "theta_out": np.zeros(3)}
        for _ in range(5):
            led.record_regret(stacked(zero))
        run = led.member(0)
        assert run.regret[-1] == 0.0
        assert run.normalized[-1] == 0.0

    def test_constant_squared_norm(self):
        led = self.make()
        pg = {"w": np.ones((3, 3)), "u": np.zeros((3, 2)), "theta_out": np.zeros(3)}
        for _ in range(7):
            led.record_regret(stacked(pg))
        run = led.member(0)
        assert run.regret[-1] == pytest.approx(9.0 * 7)
        assert run.normalized[-1] == pytest.approx(9.0)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(0)
        led = self.make()
        total = 0.0
        for t in range(1, 50):
            pg = {
                "w": rng.normal(size=(3, 3)),
                "u": rng.normal(size=(3, 2)),
                "theta_out": rng.normal(size=3),
            }
            led.record_regret(stacked(pg))
            naive = 0.0
            for row in pg["w"]:
                for vv in row:
                    naive += vv * vv
            for row in pg["u"]:
                for vv in row:
                    naive += vv * vv
            total += naive
            run = led.member(0)
            assert run.regret[-1] == pytest.approx(total, rel=1e-12)
            assert run.normalized[-1] == pytest.approx(total / t, rel=1e-12)
        assert np.all(np.diff(led.member(0).regret) >= 0.0)


class TestEstimateSmoothness:
    def test_exact_quadratic(self):
        # Gradients of q(p) = 0.5 c |p|^2 are c p, so the estimate recovers c
        # exactly for any pair of points.
        rng = np.random.default_rng(1)
        c = 3.7
        p0 = random_srnn(3, 2, 0.5, rng)
        p1 = random_srnn(3, 2, 0.5, rng)
        g0 = {"w": c * p0.w, "u": c * p0.u, "theta_out": c * p0.theta_out}
        g1 = {"w": c * p1.w, "u": c * p1.u, "theta_out": c * p1.theta_out}
        [est] = estimate_smoothness(stacked(g0), stacked(g1), stacked(p0), stacked(p1))
        assert est.beta_theta == pytest.approx(c, rel=1e-12)
        assert est.beta_mu == pytest.approx(c, rel=1e-12)
        assert est.beta_max == pytest.approx(c, rel=1e-12)
        assert not (est.beta_theta is None and est.beta_mu is None)

    def test_degenerate_skipped(self):
        rng = np.random.default_rng(2)
        p = random_srnn(3, 2, 0.5, rng)
        g = {"w": p.w.copy(), "u": p.u.copy(), "theta_out": p.theta_out.copy()}
        [est] = estimate_smoothness(stacked(g), stacked(g), stacked(p), stacked(p))
        assert est.beta_theta is None and est.beta_mu is None
        assert est.beta_max is None

    def test_partial_block(self):
        rng = np.random.default_rng(3)
        p0 = random_srnn(3, 2, 0.5, rng)
        p1 = dataclasses.replace(p0, u=p0.u + 0.1)
        g0 = {"w": np.zeros((3, 3)), "u": np.zeros((3, 2)), "theta_out": np.zeros(3)}
        g1 = {"w": np.zeros((3, 3)), "u": np.full((3, 2), 0.2), "theta_out": np.zeros(3)}
        [est] = estimate_smoothness(stacked(g0), stacked(g1), stacked(p0), stacked(p1))
        assert est.beta_theta is None  # w did not move
        assert est.beta_mu is not None
        assert est.beta_max == est.beta_mu

    def test_ledger_alignment(self):
        led = RegretLedger()
        with pytest.raises(ValueError):
            led.record_smoothness(
                estimate_smoothness(
                    stacked({"w": np.zeros((2, 2)), "u": np.zeros((2, 2))}),
                    stacked({"w": np.ones((2, 2)), "u": np.zeros((2, 2))}),
                    stacked(random_srnn(2, 2, 0.5, np.random.default_rng(0))),
                    stacked(random_srnn(2, 2, 0.5, np.random.default_rng(1))),
                )
            )


def member(stacks, b):
    return {k: a[b] for k, a in stacks.items()}


STACKS = dict(
    batch=st.integers(1, 6),
    n_h=st.integers(1, 8),
    n_x=st.integers(1, 6),
    scale=st.floats(1e-3, 1e3),
    poison=st.sampled_from([None, np.nan, np.inf]),
    seed=st.integers(0, 2**32 - 1),
)


class TestStackedInstrumentation:
    """The ledger and the smoothness estimate over B runs' stacks are bit for
    bit each run's serial reference, poisoned (NaN/inf) members included."""

    @staticmethod
    def draw(rng, batch, n_h, n_x, scale):
        shapes = {"w": (n_h, n_h), "u": (n_h, n_x)}
        return {k: rng.normal(0.0, scale, (batch,) + shape) for k, shape in shapes.items()}

    @staticmethod
    def poisoned(rng, stacks, bad):
        k = ("w", "u")[int(rng.integers(2))]
        stacks[k][int(rng.integers(len(stacks[k])))].flat[0] = bad

    @settings(max_examples=100)
    @given(steps=st.integers(1, 6), **STACKS)
    def test_ledger_equals_serial_reference(self, steps, batch, n_h, n_x, scale, poison, seed):
        rng = np.random.default_rng(seed)
        projected = [self.draw(rng, batch, n_h, n_x, scale) for _ in range(steps)]
        if poison is not None:
            self.poisoned(rng, projected[int(rng.integers(steps))], poison)
        led = RegretLedger()
        for pg in projected:
            led.record_regret(pg)
        runs = [led.member(b) for b in range(batch)]
        for b, run in enumerate(runs):
            want = serial_ledger([member(pg, b) for pg in projected])
            for name in RegretLedger.NUMERIC:
                assert repr(getattr(run, name)) == repr(want[name]), (b, name)
        kept = sorted(rng.choice(batch, int(rng.integers(1, batch + 1)), replace=False))
        led.keep(kept)
        for i, b in enumerate(kept):
            for name in RegretLedger.NUMERIC:
                assert repr(getattr(led.member(i), name)) == repr(getattr(runs[b], name))

    @settings(max_examples=100)
    @given(**STACKS)
    def test_smoothness_equals_serial_reference(self, batch, n_h, n_x, scale, poison, seed):
        rng = np.random.default_rng(seed)
        p0 = self.draw(rng, batch, n_h, n_x, 0.5)
        step = self.draw(rng, batch, n_h, n_x, scale)
        for k in step:  # some blocks do not move: exactly, or by a step below rounding
            step[k][rng.random(batch) < 0.3] = 0.0
            step[k][rng.random(batch) < 0.2] = 1e-300
        p1 = {k: p0[k] + step[k] for k in p0}
        g0 = self.draw(rng, batch, n_h, n_x, scale)
        g1 = self.draw(rng, batch, n_h, n_x, scale)
        if poison is not None:
            self.poisoned(rng, (g1, p1)[int(rng.integers(2))], poison)
        got = estimate_smoothness(g0, g1, p0, p1)
        assert len(got) == batch
        for b in range(batch):
            want = serial_smoothness(member(g0, b), member(g1, b), member(p0, b), member(p1, b))
            assert repr(got[b]) == repr(want), b


class TestLedgerBlocks:
    """run_batch records K sampled steps of B runs with one call each: a
    (K, B, ...) record_regret and K * B smoothness samples are bit for bit
    the K one-step calls."""

    @settings(max_examples=150)
    @given(
        steps=st.integers(1, 70),
        batch=st.integers(1, 5),
        earlier=st.integers(0, 3),
        n_h=st.integers(1, 6),
        n_x=st.integers(1, 4),
        exponent=st.sampled_from([-300, -150, -1, 0, 1, 150, 300]),
        seed=st.integers(0, 2**32 - 1),
    )
    @np.errstate(over="ignore", invalid="ignore")
    def test_block_equals_one_step_calls(self, steps, batch, earlier, n_h, n_x, exponent, seed):
        rng = np.random.default_rng(seed)

        def draw():  # entries from 0 up to 1e+-300, squares overflowing to inf
            out = {}
            for k, shape in (("w", (n_h, n_h)), ("u", (n_h, n_x))):
                scale = 10.0 ** (exponent + rng.integers(-3, 4, batch))
                a = rng.normal(size=(batch,) + shape) * scale[:, None, None]
                a[rng.random(batch) < 0.2] = 0.0
                out[k] = a
            return out

        head = [draw() for _ in range(earlier)]  # entries before the block: R_prev
        block = [draw() for _ in range(steps)]
        one, blocked = RegretLedger(), RegretLedger()
        for pg in head:
            one.record_regret(pg)
            blocked.record_regret(pg)
        for pg in block:
            one.record_regret(pg)
        blocked.record_regret({k: np.stack([pg[k] for pg in block]) for k in ("w", "u")})
        assert len(blocked) == len(one) == earlier + steps
        for name in RegretLedger.NUMERIC:
            assert repr(getattr(blocked, name)) == repr(getattr(one, name)), name
        assert blocked.smoothness == one.smoothness == [[None] * batch] * (earlier + steps)

    def test_block_of_smoothness_samples_fills_last_entries(self):
        led = RegretLedger()
        pg = {"w": np.ones((3, 2, 2, 2)), "u": np.ones((3, 2, 2, 1))}  # K = 3, B = 2
        led.record_regret(pg)
        samples = [SmoothnessEstimate(float(i), None) for i in range(4)]
        led.record_smoothness(samples)  # the last two entries
        assert led.smoothness == [[None, None], samples[:2], samples[2:]]
        led.record_smoothness(samples[:2])  # one step: the newest entry
        assert led.smoothness[-1] == samples[:2]
        assert led.member(1).beta_exp == [None, 1.0, 1.0]


def per_cell_csv(header, columns) -> str:
    """The CSV text written cell by cell, as a reference: empty for None and
    NaN, repr of float for floats, str otherwise."""
    lines = [",".join(header)]
    for row in zip(*columns):
        cells = []
        for val in row:
            if val is None or (isinstance(val, float) and math.isnan(val)):
                cells.append("")
            elif isinstance(val, (float, np.floating)):
                cells.append(repr(float(val)))
            else:
                cells.append(str(val))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    def test_equals_per_cell_writer(self, tmp_path):
        special = [np.nan, -0.0, 0.0, np.inf, -np.inf, 0.1, 1e-300, 5e-324, 1.7976931348623157e308]
        rng = np.random.default_rng(7)
        n = len(special) + 20
        floats = np.concatenate([special, rng.normal(size=20) * 10.0 ** rng.integers(-20, 20, 20)])
        with np.errstate(over="ignore"):  # the largest double is inf in float32
            single = floats.astype(np.float32)
        header = ["t", "f64", "f32", "scalars", "mixed", "ints", "text"]
        columns = [
            range(1, n + 1),
            floats,
            single,
            [np.float64(v) for v in floats],
            [None, np.nan, -0.0, float("inf"), 3, "x", np.float64(np.nan)] * 3 + [1.5] * (n - 21),
            np.arange(n) - 5,
            [f"s{i}" for i in range(n)],
        ]
        path = tmp_path / "out.csv"
        write_csv(path, header, columns)
        assert path.read_text(encoding="utf-8") == per_cell_csv(header, columns)
