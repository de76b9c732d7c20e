"""Online training end to end: windowed descent vs first-order baselines.

Streams a synthetic regression task through the harness with three training
setups and prints the resulting error table - the windowed method trades
extra per-step work for a better fit at equal model size.
"""

from wogd.harness import ExperimentConfig, aggregate, run_many

COMMON = dict(task="synthetic", features=3, steps=1200, n_h=8, init_std=0.1,
              window=100)  # every setup backpropagates through 100 steps
SEEDS = (1, 2, 3)

configs = [
    ExperimentConfig(model="srnn", optimizer="wogd", eta=0.05,
                     lam=0.95, alpha=7.5, out_lr_scale=8.0, out_radius=2.5, **COMMON),
    ExperimentConfig(model="srnn", optimizer="adam", learning_rate=0.005, **COMMON),
    ExperimentConfig(model="lstm", optimizer="adam", learning_rate=0.005, **COMMON),
]

results = []
for cfg in configs:
    print(f"running {cfg.label} on seeds {SEEDS} ...")
    results.extend(run_many(cfg, seeds=SEEDS))

summary = aggregate(results)
print()
print(f"{'algorithm':>18s}  {'mse(mean)':>10s}  {'mse(min)':>10s}  {'runtime_s':>10s}")
for row in summary.rows:
    print(f"{row.label:>18s}  {row.mse_mean:10.5f}  {row.mse_min:10.5f}  {row.runtime_mean_s:10.2f}")
print("(the seeds of each setup train in lockstep, so runtime_s is the batch's")
print(" wall time divided by the number of seeds)")

print()
print("learning curves (cumulative mean squared error) at checkpoints:")
ts = [100, 400, 800, 1200]
print(f"{'t':>18s}  " + "  ".join(f"{t:>8d}" for t in ts))
for label, curve in summary.curves.items():
    vals = "  ".join(f"{curve[t - 1]:8.4f}" for t in ts)
    print(f"{label:>18s}  {vals}")
