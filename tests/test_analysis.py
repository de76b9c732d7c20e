"""Bound calculators, regret accounting, and the smoothness estimator."""

import math

import numpy as np
import pytest

from wogd.analysis import (
    RegretLedger,
    SmoothnessEstimate,
    estimate_smoothness,
    regret_bound,
    smoothness_bounds,
)
from wogd.models import random_srnn, replace_blocks


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


class TestRegretLedger:
    def make(self):
        return RegretLedger()

    def test_zero_gradients(self):
        led = self.make()
        zero = {"w": np.zeros((3, 3)), "u": np.zeros((3, 2)), "theta_out": np.zeros(3)}
        for _ in range(5):
            led.record_regret(zero)
        assert led.regret[-1] == 0.0
        assert led.normalized[-1] == 0.0

    def test_constant_squared_norm(self):
        led = self.make()
        pg = {"w": np.ones((3, 3)), "u": np.zeros((3, 2)), "theta_out": np.zeros(3)}
        for _ in range(7):
            led.record_regret(pg)
        assert led.regret[-1] == pytest.approx(9.0 * 7)
        assert led.normalized[-1] == pytest.approx(9.0)

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
            led.record_regret(pg)
            naive = 0.0
            for row in pg["w"]:
                for vv in row:
                    naive += vv * vv
            for row in pg["u"]:
                for vv in row:
                    naive += vv * vv
            total += naive
            assert led.regret[-1] == pytest.approx(total, rel=1e-12)
            assert led.normalized[-1] == pytest.approx(total / t, rel=1e-12)
        assert np.all(np.diff(led.regret) >= 0.0)

    def test_csv_export(self, tmp_path):
        led = self.make()
        pg = {"w": np.ones((3, 3)), "u": np.ones((3, 2)), "theta_out": np.zeros(3)}
        led.record_regret(pg)
        led.record_regret(pg)
        led.record_smoothness(SmoothnessEstimate(beta_theta=0.25, beta_mu=1.5))
        path = tmp_path / "ledger.csv"
        led.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,grad_sq_theta,grad_sq_mu,regret,normalized_regret,beta_exp"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == 9.0
        assert float(first[2]) == 6.0
        assert first[5] == ""  # no smoothness sample at this step
        assert lines[2] == "2,9.0,6.0,30.0,15.0,1.5"


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
        est = estimate_smoothness(g0, g1, p0, p1)
        assert est.beta_theta == pytest.approx(c, rel=1e-12)
        assert est.beta_mu == pytest.approx(c, rel=1e-12)
        assert est.beta_max == pytest.approx(c, rel=1e-12)
        assert not est.skipped

    def test_degenerate_skipped(self):
        rng = np.random.default_rng(2)
        p = random_srnn(3, 2, 0.5, rng)
        g = {"w": p.w.copy(), "u": p.u.copy(), "theta_out": p.theta_out.copy()}
        est = estimate_smoothness(g, g, p, p)
        assert est.skipped
        assert est.beta_max is None

    def test_partial_block(self):
        rng = np.random.default_rng(3)
        p0 = random_srnn(3, 2, 0.5, rng)
        p1 = replace_blocks(p0, {"u": p0.u + 0.1})
        g0 = {"w": np.zeros((3, 3)), "u": np.zeros((3, 2)), "theta_out": np.zeros(3)}
        g1 = {"w": np.zeros((3, 3)), "u": np.full((3, 2), 0.2), "theta_out": np.zeros(3)}
        est = estimate_smoothness(g0, g1, p0, p1)
        assert est.beta_theta is None  # w did not move
        assert est.beta_mu is not None
        assert est.beta_max == est.beta_mu

    def test_ledger_alignment(self):
        led = RegretLedger()
        with pytest.raises(ValueError):
            led.record_smoothness(
                estimate_smoothness(
                    {"w": np.zeros((2, 2)), "u": np.zeros((2, 2)), "theta_out": np.zeros(2)},
                    {"w": np.ones((2, 2)), "u": np.zeros((2, 2)), "theta_out": np.zeros(2)},
                    random_srnn(2, 2, 0.5, np.random.default_rng(0)),
                    random_srnn(2, 2, 0.5, np.random.default_rng(1)),
                )
            )
