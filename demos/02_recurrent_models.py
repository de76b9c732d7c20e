"""The three recurrent architectures side by side.

Runs an Elman network, an LSTM, and a clockwork RNN over the same input
stream and shows what each one keeps in its state: the Elman state moves
every step, the LSTM regulates a separate cell, and the clockwork blocks
update on their own clocks.
"""

import numpy as np

from wogd import random_cwrnn, random_lstm, random_srnn, zero_state
from wogd.models import readout, step_model

rng = np.random.default_rng(7)
n_h, n_x = 8, 3

srnn = random_srnn(n_h, n_x, 0.4, rng)
lstm = random_lstm(n_h, n_x, 0.4, rng)
cw = random_cwrnn(n_h, n_x, (1, 2, 4, 8), 0.4, rng)

print("clockwork unit periods:", cw.unit_periods())
print("clockwork recurrent mask (row = listener block):")
print(cw.recurrent_mask().astype(int))
print()

s1, s2, s3 = zero_state(srnn), zero_state(lstm), zero_state(cw)
print(" t | elman h[0..2]          | lstm h[0..2]           | clockwork active blocks")
for t in range(1, 9):
    x = rng.uniform(-1.0, 1.0, n_x)
    s1, _ = step_model(srnn, s1, x)
    s2, gates = step_model(lstm, s2, x)
    s3, _ = step_model(cw, s3, x)  # the clockwork steps at t = s3.t + 1
    active = sorted({int(p) for p in cw.unit_periods()[cw.active_units(t)]})
    print(
        f"{t:2d} | {np.array2string(s1.h[:3], precision=3, floatmode='fixed'):22s}"
        f" | {np.array2string(s2.h[:3], precision=3, floatmode='fixed'):22s}"
        f" | periods {active}"
    )

print()
print("every hidden entry stays inside [-1, 1]:",
      max(np.abs(s1.h).max(), np.abs(s2.h).max(), np.abs(s3.h).max()) <= 1.0)
print("linear readout of the elman state:", round(readout(srnn, s1, "squared"), 4))
