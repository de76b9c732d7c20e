"""Recurrent model forward passes: Elman SRNN, gate-based LSTM, clockwork RNN.

All three families share the same conventions: float64 numpy parameters,
hidden state in [-1, 1]^n_h, a linear readout theta_out (optionally squashed
through a sigmoid for binary targets), and an optional bias handled by
appending a constant 1.0 to the input vector (so n_x counts that dimension).

Each family has one forward kernel over a window of m steps of B runs:
``elman_forward`` (SRNN, and the clockwork RNN through ``clockwork``) and
``lstm_forward``; ``readout`` is the one readout. The online step
``step_model`` is the m = 1 case of its family's kernel over (B, ...)
parameter stacks, one run being the B = 1 case, so the online loop and the
replay of a window run the same recurrence. LstmParams hold the gate stacks
lstm_forward takes, gates in the order i, f, o, g. A CwrnnParams is an
SrnnParams with clock periods: the Elman triple (w, u, theta_out) and its
shape checks are the SRNN's. Parameters are treated as immutable values;
every step returns fresh states.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .tasks import LOSS_CROSS_ENTROPY


def sigmoid(z):
    """Logistic function, elementwise, through the identity
    1 / (1 + e^-z) = (1 + tanh(z / 2)) / 2: no exponential to overflow, and
    sigmoid(-z) = 1 - sigmoid(z) up to one rounding."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass(frozen=True)
class LstmGates:
    """Per-step gate activations of B runs, (B, n_h) arrays, cached for
    backpropagation."""

    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c_new: np.ndarray


def _check_vec(name: str, v: np.ndarray, n: int) -> None:
    if v.shape != (n,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({n},)")


@dataclass(frozen=True)
class SrnnParams:
    """Elman network: h_t = tanh(w h_{t-1} + u x_t), readout theta_out^T h_t."""

    w: np.ndarray
    u: np.ndarray
    theta_out: np.ndarray

    def __post_init__(self):
        n_h, n_x = self.u.shape
        if self.w.shape != (n_h, n_h):
            raise ValueError(f"w has shape {self.w.shape}, expected ({n_h}, {n_h})")
        _check_vec("theta_out", self.theta_out, n_h)

    @property
    def n_h(self) -> int:
        return self.w.shape[0]

    @property
    def n_x(self) -> int:
        return self.u.shape[1]


@dataclass(frozen=True)
class LstmParams:
    """LSTM without peephole connections; sigmoid gates, tanh candidate/output.

    The gates are stacked in the order i, f, o, g (input, forget, output,
    candidate), n_h rows each, as lstm_forward takes them: the recurrent
    matrices w (4 n_h, n_h), the input matrices u (4 n_h, n_x) and the
    biases b (4 n_h,). theta_out is the linear readout.
    """

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray
    theta_out: np.ndarray

    def __post_init__(self):
        n_h, n_x = self.w.shape[-1], self.u.shape[-1]
        shapes = {"w": (4 * n_h, n_h), "u": (4 * n_h, n_x), "b": (4 * n_h,), "theta_out": (n_h,)}
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")

    @property
    def n_h(self) -> int:
        return self.w.shape[1]

    @property
    def n_x(self) -> int:
        return self.u.shape[1]


def check_periods(n_h: int, periods) -> None:
    """The clockwork rule, a ValueError when broken: one or more positive
    periods in non-descending order, splitting n_h into equal blocks."""
    if len(periods) < 1 or any(p < 1 for p in periods):
        raise ValueError("periods must be one or more positive integers")
    if any(a > b for a, b in zip(periods, periods[1:])):
        raise ValueError("periods must be non-descending")
    if n_h % len(periods) != 0:
        raise ValueError(f"n_h={n_h} not divisible by the {len(periods)} clock blocks")


@dataclass(frozen=True)
class CwrnnParams(SrnnParams):
    """Clockwork RNN: an SRNN whose equal-size blocks of hidden units have
    clock periods, block i active iff t % periods[i] == 0.

    The recurrent matrix is masked so a block receives recurrent input only
    from blocks whose period is >= its own (slower-to-faster connectivity).
    With all periods equal to 1 the mask is full and the model reduces to the
    plain SRNN.
    """

    periods: tuple[int, ...]

    def __post_init__(self):
        super().__post_init__()
        check_periods(self.n_h, self.periods)

    @property
    def block_size(self) -> int:
        return self.n_h // len(self.periods)

    def unit_periods(self) -> np.ndarray:
        """Period of each hidden unit, shape (n_h,)."""
        return np.repeat(np.asarray(self.periods, dtype=np.int64), self.block_size)

    def recurrent_mask(self) -> np.ndarray:
        """0/1 mask over w: row block i listens to column block j iff
        periods[j] >= periods[i]."""
        up = self.unit_periods()
        return (up[None, :] >= up[:, None]).astype(np.float64)

    def active_units(self, t) -> np.ndarray:
        """Boolean mask of units whose block updates at timestep t, (n_h,);
        for an array of timesteps, one row per timestep: (m, n_h) for (m,),
        (m, B, n_h) for per-run timesteps (m, B)."""
        return (np.asarray(t)[..., None] % self.unit_periods()) == 0


def member_major(a: np.ndarray) -> np.ndarray:
    """A time-major (m, B, ...) array as a C-contiguous (B, m, ...) one."""
    return np.ascontiguousarray(a.swapaxes(0, 1))


# ---------------------------------------------------------------------------
# Elman kernel (SRNN and CWRNN; the clockwork adds a mask and a schedule)
#
# One kernel serves one run (B = 1) and B runs trained in lockstep, over one
# step (the online step) or a window (the replay). Every array that a loop
# of this kernel or of its backward pass in ``gradients`` steps through, and
# every out= buffer it writes, is C-contiguous and time-major: the states
# (m + 1, B, n_h, 1), the pre-activations and the backward's dh and deltas
# (m, B, n_h, 1). So each step works on one contiguous (B, n_h, 1) block; a
# strided block sends numpy's ufuncs down their slow path. Parameters are
# stacked member-first: w (B, n_h, n_h), u (B, n_h, n_x). Every product is a
# per-member BLAS call on a slice laid out as in the one-run case, so a
# member's numbers do not depend on the batch it runs in. The backward's
# transpose of w stays a view: a contiguous copy sends BLAS down another
# matrix-vector kernel, whose sums round differently.
# ---------------------------------------------------------------------------


def clockwork(w: np.ndarray, family, ts) -> tuple[np.ndarray, np.ndarray | None]:
    """The recurrent matrices w (B, n_h, n_h) of runs of the same family as
    the parameters `family`, as the recurrence applies them at timesteps ts,
    (m,) shared by the runs or (m, B) per run. For a clockwork family: w
    masked to its slower-to-faster connectivity and the units' activity,
    boolean (m, 1, n_h) or (m, B, n_h). Otherwise (SRNN or None): w unchanged
    and no schedule."""
    if not isinstance(family, CwrnnParams):
        return w, None
    ts = np.asarray(ts)
    return w * family.recurrent_mask(), family.active_units(ts.reshape(len(ts), -1))


def elman_forward(
    xb: np.ndarray,
    h0: np.ndarray,
    w: np.ndarray,
    u: np.ndarray,
    active: np.ndarray | None = None,
) -> np.ndarray:
    """Run h_t = tanh(w h_{t-1} + u x_t) over the member-major inputs
    xb (B, m, n_x) from the anchors h0 (B, n_h, 1).

    `active` (m, B|1, n_h), boolean, is a clockwork schedule: inactive units
    keep their previous value. Returns the states (m + 1, B, n_h, 1), h[0] = h0.
    """
    # One product per member for all the inputs of the window, then one
    # time-major block per step that the loop overwrites with the
    # pre-activation. numpy computes a window's input products as a
    # matrix-matrix product and a single step's (m = 1) as a matrix-vector
    # product; with n_x >= 2 their sums may round apart by an ulp, so a
    # window matches its steps chained one at a time to rounding, not bitwise.
    pre = member_major(np.matmul(xb, u.swapaxes(1, 2)))[..., None]
    h = np.empty((xb.shape[1] + 1,) + h0.shape)
    h[0] = h0
    wh = np.empty(h0.shape)
    idle = [None] * len(pre) if active is None else ~active[..., None]
    matmul, add, tanh = np.matmul, np.add, np.tanh  # local names: the loop is call-bound
    for h_prev, h_next, a, keep in zip(h[:-1], h[1:], pre, idle):
        matmul(w, h_prev, out=wh)
        add(wh, a, out=a)
        tanh(a, out=h_next)
        if keep is not None:
            np.copyto(h_next, h_prev, where=keep)
    return h


def lstm_forward(
    xb: np.ndarray, h0: np.ndarray, c0: np.ndarray, w: np.ndarray, u: np.ndarray, b: np.ndarray
):
    """Run the LSTM over the member-major inputs xb (B|1, m, n_x) from the
    states h0 and cells c0 (B, n_h), with the gate stacks w (B, 4 n_h, n_h),
    u (B, 4 n_h, n_x) and b (B, 4 n_h) of B LstmParams, gates in the order
    i, f, o, g.

    Returns the states h and cells c (m + 1, B, n_h), with h[0] = h0 and
    c[0] = c0, and per step the gates i, f, o, g and tanh(c_t), (m, B, n_h).
    """
    m, n_h = xb.shape[1], h0.shape[1]
    # One matrix-vector product per member and step, as for a single step,
    # so a window runs the same arithmetic as its steps one at a time.
    uxb = np.add(np.matmul(u[:, None], xb[..., None])[..., 0].swapaxes(0, 1), b, order="C")
    h = np.empty((m + 1,) + h0.shape)
    c = np.empty((m + 1,) + h0.shape)
    h[0] = h0
    c[0] = c0
    act = np.empty((m,) + uxb.shape[1:])
    gi, gf, go, gg = (act[..., k * n_h : (k + 1) * n_h] for k in range(4))
    tc = np.empty((m,) + h0.shape)
    for i in range(m):
        a = np.matmul(w, h[i][..., None])[..., 0]
        a += uxb[i]
        act[i, :, : 3 * n_h] = sigmoid(a[:, : 3 * n_h])
        np.tanh(a[:, 3 * n_h :], out=gg[i])
        np.multiply(gf[i], c[i], out=c[i + 1])
        c[i + 1] += gi[i] * gg[i]
        np.tanh(c[i + 1], out=tc[i])
        np.multiply(go[i], tc[i], out=h[i + 1])
    return h, c, gi, gf, go, gg, tc


def readout(h: np.ndarray, theta: np.ndarray, loss_kind: str) -> np.ndarray:
    """Readouts theta^T h_t of the states h (..., m, n_h) under theta
    (..., n_h), through the sigmoid for the cross-entropy loss."""
    z = np.matmul(h, theta[..., None])[..., 0]
    return sigmoid(z) if loss_kind == LOSS_CROSS_ENTROPY else z


def step_model(family, blocks, x: np.ndarray, h: np.ndarray, c: np.ndarray | None, t: int):
    """One online step at timestep t of B runs of the family of the
    parameters `family`, the m = 1 case of elman_forward or lstm_forward:
    blocks are (B, ...) stacks keyed like param_blocks, inputs x (B|1, n_x),
    states h and, for the LSTM, cells c (B, n_h). Returns the new states
    (B, n_h) and, for the LSTM, the step's gates as (B, n_h) arrays."""
    if isinstance(family, LstmParams):
        h, c, i, f, o, g, _ = lstm_forward(x[:, None], h, c, blocks["w"], blocks["u"], blocks["b"])
        return h[1], LstmGates(i=i[0], f=f[0], o=o[0], g=g[0], c_new=c[1])
    if not isinstance(family, SrnnParams):
        raise TypeError(f"unknown parameter type {type(family).__name__}")
    w, active = clockwork(blocks["w"], family, [t])
    return elman_forward(x[:, None], h[..., None], w, blocks["u"], active)[1, :, :, 0], None


def param_blocks(params) -> list[tuple[str, np.ndarray]]:
    """Named numpy parameter blocks, in declaration order."""
    out = []
    for f in dataclasses.fields(params):
        val = getattr(params, f.name)
        if isinstance(val, np.ndarray):
            out.append((f.name, val))
    return out


def random_srnn(n_h: int, n_x: int, std: float, rng: np.random.Generator) -> SrnnParams:
    return SrnnParams(
        w=rng.normal(0.0, std, (n_h, n_h)),
        u=rng.normal(0.0, std, (n_h, n_x)),
        theta_out=rng.normal(0.0, std, n_h),
    )


def random_lstm(n_h: int, n_x: int, std: float, rng: np.random.Generator) -> LstmParams:
    # Biases drawn like the weights. Draw order: w, u, b of each gate in the
    # order i, f, o, g, then theta_out; the gates' draws are stacked.
    shapes = ((n_h, n_h), (n_h, n_x), n_h)
    draws = [[rng.normal(0.0, std, shape) for shape in shapes] for _ in "ifog"]
    w, u, b = (np.concatenate(gates) for gates in zip(*draws))
    return LstmParams(w=w, u=u, b=b, theta_out=rng.normal(0.0, std, n_h))


def random_cwrnn(
    n_h: int,
    n_x: int,
    periods: tuple[int, ...],
    std: float,
    rng: np.random.Generator,
) -> CwrnnParams:
    p = CwrnnParams(
        w=rng.normal(0.0, std, (n_h, n_h)),
        u=rng.normal(0.0, std, (n_h, n_x)),
        theta_out=rng.normal(0.0, std, n_h),
        periods=tuple(int(x) for x in periods),
    )
    # Structural zeros outside the slower-to-faster mask.
    return dataclasses.replace(p, w=p.w * p.recurrent_mask())
