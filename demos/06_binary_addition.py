"""Carry-bit learning: summing random bit streams online.

The model watches one column of a running binary addition per step and must
emit the sum bit; getting it right requires carrying state across time. The
run stops at "sustainable prediction": the first step of an error-free
stretch of 1000 decisions that completes within the cutoff.
"""

import numpy as np

from wogd import BinaryAddState, binary_add_stream
from wogd.harness import ExperimentConfig, run_single

print("== the stream itself ==")
state = BinaryAddState(n=2, rng=np.random.default_rng(5))
xs, ds = binary_add_stream(state, 8)
print("bits (scaled to +-1, bias last) -> sum bit")
for x, d in zip(xs, ds):
    print(f"  x={x[:-1]}  d={int(d)}")

print()
print("== training on it ==")
cfg = ExperimentConfig(
    task="binary_add", n_sequences=2, horizon=1000, cutoff=50_000,
    model="srnn", n_h=32, optimizer="wogd", eta=0.05, window=200,
    lam=0.95, alpha=7.5, out_lr_scale=8.0, out_radius=2.5,
)
for seed in (1, 2, 3):
    res = run_single(cfg, seed)
    if res.sustainable_t is None:
        print(f"seed {seed}: no sustainable prediction within {cfg.cutoff} steps")
    else:
        print(
            f"seed {seed}: sustainable from t={res.sustainable_t}"
            f" (ran {res.steps} steps, {res.runtime_s:.1f}s,"
            f" {res.projection_count} spectral projections)"
        )
