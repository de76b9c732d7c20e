"""Convergence instrumentation: local regret and empirical smoothness.

Runs the windowed method with full instrumentation and compares what the run
actually measured against the closed-form worst-case numbers: the normalized
regret shrinks toward zero, and the observed curvature of the loss surface
sits orders of magnitude below its theoretical ceiling (which is why learning
rates far above the guaranteed-safe one still converge).
"""

import numpy as np

from wogd import regret_bound, smoothness_bounds
from wogd.harness import ExperimentConfig, run_single

cfg = ExperimentConfig(
    task="synthetic", features=3, steps=1500, model="srnn", n_h=10,
    optimizer="wogd", eta=0.03, window=100, lam=0.95, alpha=7.5,
    out_lr_scale=8.0, out_radius=2.5,
    record_regret=True, record_smoothness=True,
)
print(f"running {cfg.label} with regret+smoothness instrumentation ...")
res = run_single(cfg, seed=1)
led = res.ledger

print()
print("normalized regret R(t)/t across the run:")
for t in (50, 200, 500, 1000, 1500):
    print(f"  t={t:5d}: {led.normalized[t - 1]:.6f}")
print("total regret R(T):", round(led.regret[-1], 4))
bound = regret_bound(cfg.eta, cfg.window, res.steps, cfg.n_h)
print(f"closed-form ceiling at this eta (valid for eta <= 1/beta): {bound:.1f}")

print()
n_x = cfg.features + 1
sb = smoothness_bounds(cfg.n_h, n_x, cfg.lam)
beta_emp = np.array([b for b in led.beta_exp if b is not None])  # the sampled steps
print(f"worst-case curvature bound beta       : {sb.beta:12.1f}")
print(f"observed curvature (max over the run) : {beta_emp.max():12.4f}")
print(f"observed curvature (median)           : {np.median(beta_emp):12.4f}")
print(f"bound / observed max                  : {sb.beta / beta_emp.max():12.1f}x")
print()
print("safe learning rate 1/beta would be", f"{1.0 / sb.beta:.2e},",
      f"the run used eta = {cfg.eta}")
