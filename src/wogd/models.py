"""Recurrent model forward passes: Elman SRNN, gate-based LSTM, clockwork RNN.

All three families share the same conventions: float64 numpy parameters,
hidden state in [-1, 1]^n_h, a linear readout theta_out (optionally squashed
through a sigmoid for binary targets), and an optional bias handled by
appending a constant 1.0 to the input vector (so n_x counts that dimension).
Parameters and states are treated as immutable values; every step returns a
fresh state.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np


def sigmoid(z):
    """Numerically stable logistic function, scalar or elementwise."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class HiddenState:
    """Hidden state at timestep t; c is the LSTM cell and is None otherwise."""

    h: np.ndarray
    t: int = 0
    c: np.ndarray | None = None


@dataclass(frozen=True)
class LstmGates:
    """Per-step gate activations cached for backpropagation."""

    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c_prev: np.ndarray
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

    Each gate has a recurrent matrix (n_h x n_h), an input matrix (n_h x n_x)
    and a bias vector (n_h,). theta_out is the linear readout.
    """

    w_i: np.ndarray
    u_i: np.ndarray
    b_i: np.ndarray
    w_f: np.ndarray
    u_f: np.ndarray
    b_f: np.ndarray
    w_o: np.ndarray
    u_o: np.ndarray
    b_o: np.ndarray
    w_g: np.ndarray
    u_g: np.ndarray
    b_g: np.ndarray
    theta_out: np.ndarray

    def __post_init__(self):
        n_h, n_x = self.u_i.shape
        for gate in "ifog":
            w = getattr(self, f"w_{gate}")
            u = getattr(self, f"u_{gate}")
            b = getattr(self, f"b_{gate}")
            if w.shape != (n_h, n_h) or u.shape != (n_h, n_x) or b.shape != (n_h,):
                raise ValueError(f"inconsistent shapes for gate '{gate}'")
        _check_vec("theta_out", self.theta_out, n_h)

    @property
    def n_h(self) -> int:
        return self.u_i.shape[0]

    @property
    def n_x(self) -> int:
        return self.u_i.shape[1]


@dataclass(frozen=True)
class CwrnnParams:
    """Clockwork RNN: equal-size blocks, block i active iff t % periods[i] == 0.

    The recurrent matrix is masked so a block receives recurrent input only
    from blocks whose period is >= its own (slower-to-faster connectivity).
    With all periods equal to 1 the mask is full and the model reduces to the
    plain SRNN.
    """

    w: np.ndarray
    u: np.ndarray
    theta_out: np.ndarray
    periods: tuple[int, ...]

    def __post_init__(self):
        n_h, n_x = self.u.shape
        if self.w.shape != (n_h, n_h):
            raise ValueError(f"w has shape {self.w.shape}, expected ({n_h}, {n_h})")
        _check_vec("theta_out", self.theta_out, n_h)
        if len(self.periods) < 1 or any(p < 1 for p in self.periods):
            raise ValueError("periods must be positive integers")
        if any(a > b for a, b in zip(self.periods, self.periods[1:])):
            raise ValueError("periods must be non-descending")
        if n_h % len(self.periods) != 0:
            raise ValueError(
                f"n_h={n_h} not divisible by the {len(self.periods)} blocks"
            )

    @property
    def n_h(self) -> int:
        return self.w.shape[0]

    @property
    def n_x(self) -> int:
        return self.u.shape[1]

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

    def active_units(self, t: int) -> np.ndarray:
        """Boolean mask of units whose block updates at timestep t."""
        return (t % self.unit_periods()) == 0


def zero_state(params, t: int = 0) -> HiddenState:
    """All-zero initial hidden state (with a zero cell for the LSTM)."""
    h = np.zeros(params.n_h)
    c = np.zeros(params.n_h) if isinstance(params, LstmParams) else None
    return HiddenState(h=h, t=t, c=c)


def srnn_step(p: SrnnParams, s: HiddenState, x: np.ndarray) -> HiddenState:
    """One Elman update: h <- tanh(w h + u x)."""
    x = np.asarray(x, dtype=np.float64)
    _check_vec("x", x, p.n_x)
    _check_vec("h", s.h, p.n_h)
    h = np.tanh(p.w @ s.h + p.u @ x)
    return HiddenState(h=h, t=s.t + 1)


def srnn_predict(p: SrnnParams, s: HiddenState) -> float:
    """Linear readout theta_out^T h."""
    _check_vec("h", s.h, p.n_h)
    return float(p.theta_out @ s.h)


def predict_sigmoid(p, s: HiddenState) -> float:
    """Sigmoid readout for binary targets; result in (0, 1)."""
    _check_vec("h", s.h, p.n_h)
    return float(sigmoid(float(p.theta_out @ s.h)))


def lstm_step(p: LstmParams, s: HiddenState, x: np.ndarray) -> tuple[HiddenState, LstmGates]:
    """One LSTM update; returns the new state plus the gate record."""
    x = np.asarray(x, dtype=np.float64)
    _check_vec("x", x, p.n_x)
    _check_vec("h", s.h, p.n_h)
    if s.c is None:
        raise ValueError("LSTM state requires a cell vector c")
    i = sigmoid(p.w_i @ s.h + p.u_i @ x + p.b_i)
    f = sigmoid(p.w_f @ s.h + p.u_f @ x + p.b_f)
    o = sigmoid(p.w_o @ s.h + p.u_o @ x + p.b_o)
    g = np.tanh(p.w_g @ s.h + p.u_g @ x + p.b_g)
    c_new = f * s.c + i * g
    h = o * np.tanh(c_new)
    gates = LstmGates(i=i, f=f, o=o, g=g, c_prev=s.c, c_new=c_new)
    return HiddenState(h=h, t=s.t + 1, c=c_new), gates


def cwrnn_step(p: CwrnnParams, s: HiddenState, x: np.ndarray, t: int) -> HiddenState:
    """One clockwork update at timestep t: active blocks recompute, the rest
    copy their previous values."""
    if t < 1:
        raise ValueError(f"timestep must be >= 1, got {t}")
    if t != s.t + 1:
        raise ValueError(f"timestep {t} does not follow state at t={s.t}")
    x = np.asarray(x, dtype=np.float64)
    _check_vec("x", x, p.n_x)
    _check_vec("h", s.h, p.n_h)
    active = p.active_units(t)
    w_eff = p.w * p.recurrent_mask()
    fresh = np.tanh(w_eff @ s.h + p.u @ x)
    h = np.where(active, fresh, s.h)
    return HiddenState(h=h, t=t)


def step_model(params, s: HiddenState, x: np.ndarray) -> tuple[HiddenState, LstmGates | None]:
    """Architecture dispatch for the online loop; timestep taken from the state."""
    if isinstance(params, SrnnParams):
        return srnn_step(params, s, x), None
    if isinstance(params, LstmParams):
        return lstm_step(params, s, x)
    if isinstance(params, CwrnnParams):
        return cwrnn_step(params, s, x, s.t + 1), None
    raise TypeError(f"unknown parameter type {type(params).__name__}")


def readout(params, s: HiddenState, loss_kind: str) -> float:
    from .tasks import LOSS_CROSS_ENTROPY  # local import avoids a cycle

    if loss_kind == LOSS_CROSS_ENTROPY:
        return predict_sigmoid(params, s)
    return float(params.theta_out @ s.h)


def param_blocks(params) -> list[tuple[str, np.ndarray]]:
    """Named numpy parameter blocks, in declaration order."""
    out = []
    for f in dataclasses.fields(params):
        val = getattr(params, f.name)
        if isinstance(val, np.ndarray):
            out.append((f.name, val))
    return out


def replace_blocks(params, blocks: dict[str, np.ndarray]):
    """New params of the same family with the listed blocks swapped in."""
    return dataclasses.replace(params, **blocks)


def random_srnn(n_h: int, n_x: int, std: float, rng: np.random.Generator) -> SrnnParams:
    return SrnnParams(
        w=rng.normal(0.0, std, (n_h, n_h)),
        u=rng.normal(0.0, std, (n_h, n_x)),
        theta_out=rng.normal(0.0, std, n_h),
    )


def random_lstm(n_h: int, n_x: int, std: float, rng: np.random.Generator) -> LstmParams:
    # Biases drawn like the weights; draw order fixed by field order.
    vals = {}
    for gate in "ifog":
        vals[f"w_{gate}"] = rng.normal(0.0, std, (n_h, n_h))
        vals[f"u_{gate}"] = rng.normal(0.0, std, (n_h, n_x))
        vals[f"b_{gate}"] = rng.normal(0.0, std, n_h)
    return LstmParams(theta_out=rng.normal(0.0, std, n_h), **vals)


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
    return replace_blocks(p, {"w": p.w * p.recurrent_mask()})
