"""The three recurrent architectures side by side.

Runs an Elman network, an LSTM, and a clockwork RNN over the same input
stream and shows what each one keeps in its state: the Elman state moves
every step, the LSTM regulates a separate cell, and the clockwork blocks
update on their own clocks.
"""

import numpy as np

from wogd import random_cwrnn, random_lstm, random_srnn
from wogd.models import param_blocks, readout, step_model

rng = np.random.default_rng(7)
n_h, n_x = 8, 3

srnn = random_srnn(n_h, n_x, 0.4, rng)
lstm = random_lstm(n_h, n_x, 0.4, rng)
cw = random_cwrnn(n_h, n_x, (1, 2, 4, 8), 0.4, rng)

print("clockwork unit periods:", cw.unit_periods())
print("clockwork recurrent mask (row = listener block):")
print(cw.recurrent_mask().astype(int))
print()

# one run of each: (1, ...) parameter stacks, (1, n_h) states and cell
blocks = {name: {k: a[None] for k, a in param_blocks(p)} for name, p in
          (("srnn", srnn), ("lstm", lstm), ("cw", cw))}
h1, h2, c2, h3 = (np.zeros((1, n_h)) for _ in range(4))
print(" t | elman h[0..2]          | lstm h[0..2]           | clockwork active blocks")
for t in range(1, 9):
    x = rng.uniform(-1.0, 1.0, (1, n_x))
    h1, _ = step_model(srnn, blocks["srnn"], x, h1, None, t)
    h2, gates = step_model(lstm, blocks["lstm"], x, h2, c2, t)
    c2 = gates.c_new
    h3, _ = step_model(cw, blocks["cw"], x, h3, None, t)  # the clockwork steps at timestep t
    active = sorted({int(p) for p in cw.unit_periods()[cw.active_units(t)]})
    print(
        f"{t:2d} | {np.array2string(h1[0, :3], precision=3, floatmode='fixed'):22s}"
        f" | {np.array2string(h2[0, :3], precision=3, floatmode='fixed'):22s}"
        f" | periods {active}"
    )

print()
print("every hidden entry stays inside [-1, 1]:",
      max(np.abs(h1).max(), np.abs(h2).max(), np.abs(h3).max()) <= 1.0)
print("linear readout of the elman state:",
      round(float(readout(h1, srnn.theta_out, "squared")[0]), 4))
