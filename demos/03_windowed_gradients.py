"""The activation tape and gradients of the windowed loss.

Fills a tape with recent steps, differentiates the mean of the window's
losses in both modes (replay vs cached), and cross-checks the replay mode
against brute-force finite differences.
"""

import numpy as np

from wogd import ActivationTape, fd_gradient, smoothed_loss, tbptt_gradient
from wogd.models import param_blocks, random_srnn, readout, step_model

rng = np.random.default_rng(3)
params = random_srnn(4, 3, 0.4, rng)

blocks = {name: a[None] for name, a in param_blocks(params)}  # one run: (1, ...) stacks
h = np.zeros((1, 4))
tape = ActivationTape(capacity=8, h0=h, n_x=3)
for t in range(1, 13):  # the tape keeps only the last 8
    x = rng.uniform(-1.0, 1.0, (1, 3))
    d = rng.uniform(-1.0, 1.0)
    h, _ = step_model(params, blocks, x, h, None, t)
    pred = readout(h, params.theta_out, "squared")
    tape.push(x, d, pred, h)

print(f"tape holds {len(tape)} of the last steps; anchor sits at t={tape.ts[0] - 1}")
print("windowed loss at the current weights:", round(smoothed_loss(tape, params), 6))

g_replay, g_cached = (
    {name: g[0] for name, g in tbptt_gradient(tape, blocks, params, mode)[0].items()}
    for mode in ("replay", "cached")
)
g_fd = fd_gradient(tape, params, eps=1e-6)

print()
print("block      |replay|_F   |cached|_F   max |replay - fd|")
for name in ("w", "u", "theta_out"):
    print(
        f"{name:9s}  {np.linalg.norm(g_replay[name]):10.6f}"
        f"  {np.linalg.norm(g_cached[name]):10.6f}"
        f"   {np.abs(g_replay[name] - g_fd[name]).max():.2e}"
    )

print()
print("replay differentiates the window at the CURRENT weights; cached reuses")
print("the recorded activations. They agree here because the weights have not")
print("moved since the records were written:")
drift = {k: float(np.abs(g_replay[k] - g_cached[k]).max()) for k in g_replay}
print("max replay-vs-cached gap per block:", {k: f"{v:.1e}" for k, v in drift.items()})
