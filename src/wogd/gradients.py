"""Gradients of the time-smoothed loss via truncated backpropagation.

The tape keeps the last `w` observed steps plus the hidden state at the
window's left edge (the anchor). Gradients come in two flavours:

* ``replay`` (default): re-run the forward pass from the anchor over the
  window's inputs with the *current* parameters, then backpropagate the mean
  of the window losses, treating the anchor as a constant. This is the exact
  gradient of the windowed loss under truncation.
* ``cached``: backpropagate through the activations stored on the tape
  (computed under the historical parameters) with the current weight
  matrices. The classical, cheaper TBPTT approximation.

``instant_gradient`` is the cached-mode gradient of the newest loss only and
is what the first-order baselines (SGD/RMSprop/Adam) consume.

All gradients are returned as a dict keyed by parameter-block name, with the
same shapes as the corresponding parameter arrays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .models import (
    CwrnnParams,
    HiddenState,
    LstmParams,
    SrnnParams,
    StepRecord,
    param_blocks,
    replace_blocks,
)
from .tasks import CROSS_ENTROPY_CLAMP, LOSS_CROSS_ENTROPY, LOSS_SQUARED

GRADIENT_MODES = ("replay", "cached")


class NumericOverflowError(RuntimeError):
    """Non-finite value during gradient computation or a parameter update."""

    def __init__(self, timestep: int, what: str = "gradient"):
        super().__init__(f"non-finite {what} at timestep {timestep}")
        self.timestep = timestep
        self.what = what

    def __reduce__(self):
        # Rebuild from the constructor arguments, not the formatted message,
        # so the error crosses a process pool intact.
        return type(self), (self.timestep, self.what)


class ActivationTape:
    """Ring buffer of the last `capacity` StepRecords plus the anchor state.

    Single-writer: owned by one training run. The anchor always sits one
    timestep before the oldest record, so a replay from the anchor over the
    recorded inputs reproduces the recorded window.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"tape capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records: deque[StepRecord] = deque()
        self.anchor: HiddenState | None = None

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[StepRecord, ...]:
        return tuple(self._records)

    @property
    def newest_t(self) -> int:
        if not self._records:
            raise ValueError("tape is empty")
        return self._records[-1].t

    def push(self, record: StepRecord) -> "ActivationTape":
        if record.h_new.t != record.h_prev.t + 1:
            raise ValueError(
                f"record states not consecutive: {record.h_prev.t} -> {record.h_new.t}"
            )
        if self._records:
            if record.t != self._records[-1].t + 1:
                raise ValueError(
                    f"non-contiguous push: tape ends at t={self._records[-1].t}, "
                    f"record has t={record.t}"
                )
        else:
            self.anchor = record.h_prev
        self._records.append(record)
        if len(self._records) > self.capacity:
            evicted = self._records.popleft()
            self.anchor = evicted.h_new
        return self


@dataclass
class _Window:
    """Stacked view of the tape used by the vectorized kernels."""

    x: np.ndarray  # (m, n_x)
    d: np.ndarray  # (m,)
    pred: np.ndarray  # (m,) recorded predictions
    h_rec: np.ndarray  # (m + 1, n_h) anchor plus recorded states
    ts: np.ndarray  # (m,) timesteps of the records
    anchor: HiddenState
    gates: tuple[np.ndarray, ...] | None = None  # LSTM: (i, f, o, g, c_prev, c_new)

    @property
    def m(self) -> int:
        return self.x.shape[0]


def _window(tape: ActivationTape) -> _Window:
    if len(tape) == 0:
        raise ValueError("tape is empty")
    recs = tape.records
    m = len(recs)
    n_x = recs[0].x.shape[0]
    n_h = tape.anchor.h.shape[0]
    x = np.empty((m, n_x))
    d = np.empty(m)
    pred = np.empty(m)
    h_rec = np.empty((m + 1, n_h))
    h_rec[0] = tape.anchor.h
    for i, r in enumerate(recs):
        x[i] = r.x
        d[i] = r.d
        pred[i] = r.prediction
        h_rec[i + 1] = r.h_new.h
    ts = tape.anchor.t + 1 + np.arange(m)
    gates = None
    if recs[0].gates is not None:
        gates = tuple(
            np.stack([getattr(r.gates, name) for r in recs])
            for name in ("i", "f", "o", "g", "c_prev", "c_new")
        )
    return _Window(x=x, d=d, pred=pred, h_rec=h_rec, ts=ts, anchor=tape.anchor, gates=gates)


def _check_finite(arr: np.ndarray, tape_end_t: int, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericOverflowError(tape_end_t, what)


def _vsigmoid(z: np.ndarray) -> np.ndarray:
    # Stable vector sigmoid via the tanh identity; agrees with models.sigmoid
    # to machine precision and is much cheaper than the two-branch form.
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _predictions(h: np.ndarray, theta: np.ndarray, loss_kind: str) -> np.ndarray:
    z = h @ theta
    if loss_kind == LOSS_CROSS_ENTROPY:
        return _vsigmoid(z)
    return z


def _mean_loss(preds: np.ndarray, targets: np.ndarray, loss_kind: str) -> float:
    # Vectorized twin of tasks.loss_and_residual, averaged over the window.
    if loss_kind == LOSS_SQUARED:
        r = preds - targets
        return float(np.mean(0.5 * r * r))
    p = np.clip(preds, CROSS_ENTROPY_CLAMP, 1.0 - CROSS_ENTROPY_CLAMP)
    return float(np.mean(-targets * np.log(p) - (1.0 - targets) * np.log(1.0 - p)))


# ---------------------------------------------------------------------------
# Elman-style kernels (shared by SRNN and CWRNN; CWRNN adds an activity mask)
# ---------------------------------------------------------------------------


def _srnn_forward(win: _Window, p: SrnnParams) -> np.ndarray:
    m = win.m
    h = np.empty((m + 1, p.n_h))
    h[0] = win.anchor.h
    ux = win.x @ p.u.T
    w = p.w
    for i in range(m):
        h[i + 1] = np.tanh(w @ h[i] + ux[i])
    return h


def _cwrnn_forward(win: _Window, p: CwrnnParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m = win.m
    w_eff = p.w * p.recurrent_mask()
    active = (win.ts[:, None] % p.unit_periods()[None, :]) == 0
    h = np.empty((m + 1, p.n_h))
    h[0] = win.anchor.h
    ux = win.x @ p.u.T
    for i in range(m):
        fresh = np.tanh(w_eff @ h[i] + ux[i])
        h[i + 1] = np.where(active[i], fresh, h[i])
    return h, active.astype(np.float64), w_eff


def _elman_backward(
    w: np.ndarray,
    theta: np.ndarray,
    h: np.ndarray,
    x: np.ndarray,
    resid_w: np.ndarray,
    active: np.ndarray | None,
) -> dict[str, np.ndarray]:
    """Backward pass for h_t = tanh(w h_{t-1} + u x_t) given loss-weighted
    residuals; `active` (0/1 per step and unit) routes copied units through an
    identity Jacobian (clockwork case)."""
    m, n_h = x.shape[0], h.shape[1]
    g_out = resid_w @ h[1:]
    rv = np.outer(resid_w, theta)
    tanhp = 1.0 - h[1:] * h[1:]
    if active is not None:
        tanhp = tanhp * active
        inactive = 1.0 - active
    deltas = np.empty((m, n_h))
    carry = np.zeros(n_h)
    wt = w.T
    for i in range(m - 1, -1, -1):
        dh = rv[i] + carry
        deltas[i] = dh * tanhp[i]
        carry = wt @ deltas[i]
        if active is not None:
            carry = carry + dh * inactive[i]
    g_w = deltas.T @ h[:-1]
    g_u = deltas.T @ x
    return {"w": g_w, "u": g_u, "theta_out": g_out}


# ---------------------------------------------------------------------------
# LSTM kernels
# ---------------------------------------------------------------------------


def _lstm_stacks(p: LstmParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    w = np.vstack([p.w_i, p.w_f, p.w_o, p.w_g])
    u = np.vstack([p.u_i, p.u_f, p.u_o, p.u_g])
    b = np.concatenate([p.b_i, p.b_f, p.b_o, p.b_g])
    return w, u, b


def _lstm_forward(win: _Window, p: LstmParams):
    m, n_h = win.m, p.n_h
    wst, ust, bst = _lstm_stacks(p)
    uxb = win.x @ ust.T + bst
    h = np.empty((m + 1, n_h))
    c = np.empty((m + 1, n_h))
    h[0] = win.anchor.h
    c[0] = win.anchor.c
    gi = np.empty((m, n_h))
    gf = np.empty((m, n_h))
    go = np.empty((m, n_h))
    gg = np.empty((m, n_h))
    tc = np.empty((m, n_h))
    for i in range(m):
        a = wst @ h[i] + uxb[i]
        sig = _vsigmoid(a[: 3 * n_h])
        gi[i] = sig[:n_h]
        gf[i] = sig[n_h : 2 * n_h]
        go[i] = sig[2 * n_h :]
        gg[i] = np.tanh(a[3 * n_h :])
        c[i + 1] = gf[i] * c[i] + gi[i] * gg[i]
        tc[i] = np.tanh(c[i + 1])
        h[i + 1] = go[i] * tc[i]
    return h, c, gi, gf, go, gg, tc


def _lstm_loss_forward(win: _Window, p: LstmParams) -> np.ndarray:
    # State-only forward for loss evaluations (finite differences): no gate
    # records are kept.
    m, n_h = win.m, p.n_h
    wst, ust, bst = _lstm_stacks(p)
    uxb = win.x @ ust.T + bst
    h = np.empty((m + 1, n_h))
    h[0] = win.anchor.h
    c = win.anchor.c
    for i in range(m):
        a = wst @ h[i] + uxb[i]
        sig = _vsigmoid(a[: 3 * n_h])
        c = sig[n_h : 2 * n_h] * c + sig[:n_h] * np.tanh(a[3 * n_h :])
        h[i + 1] = sig[2 * n_h :] * np.tanh(c)
    return h


def _lstm_backward(
    p: LstmParams,
    h: np.ndarray,
    c_prev: np.ndarray,
    gi: np.ndarray,
    gf: np.ndarray,
    go: np.ndarray,
    gg: np.ndarray,
    tc: np.ndarray,
    x: np.ndarray,
    resid_w: np.ndarray,
) -> dict[str, np.ndarray]:
    m, n_h = x.shape[0], p.n_h
    wst, _, _ = _lstm_stacks(p)
    wst_t = wst.T
    g_out = resid_w @ h[1:]
    rv = np.outer(resid_w, p.theta_out)
    si = gi * (1.0 - gi)
    sf = gf * (1.0 - gf)
    so = go * (1.0 - go)
    sg = 1.0 - gg * gg
    tcp = 1.0 - tc * tc
    da = np.empty((m, 4 * n_h))
    carry_h = np.zeros(n_h)
    carry_c = np.zeros(n_h)
    for i in range(m - 1, -1, -1):
        dh = rv[i] + carry_h
        dc = dh * go[i] * tcp[i] + carry_c
        da[i, :n_h] = dc * gg[i] * si[i]
        da[i, n_h : 2 * n_h] = dc * c_prev[i] * sf[i]
        da[i, 2 * n_h : 3 * n_h] = dh * tc[i] * so[i]
        da[i, 3 * n_h :] = dc * gi[i] * sg[i]
        carry_c = dc * gf[i]
        carry_h = wst_t @ da[i]
    g_w = da.T @ h[:-1]
    g_u = da.T @ x
    g_b = da.sum(axis=0)
    out: dict[str, np.ndarray] = {}
    for k, gate in enumerate("ifog"):
        sl = slice(k * n_h, (k + 1) * n_h)
        out[f"w_{gate}"] = g_w[sl]
        out[f"u_{gate}"] = g_u[sl]
        out[f"b_{gate}"] = g_b[sl]
    out["theta_out"] = g_out
    return out


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def smoothed_loss(tape: ActivationTape, params, loss_kind: str = LOSS_SQUARED) -> float:
    """Mean of the per-step losses over the tape, evaluated at `params`.

    Replay semantics: the window is re-run from the anchor with the given
    parameters, so this is a function of (tape contents, params).
    """
    win = _window(tape)
    return _smoothed_loss_from_window(win, params, loss_kind)


def _smoothed_loss_from_window(win: _Window, params, loss_kind: str) -> float:
    if isinstance(params, SrnnParams):
        h = _srnn_forward(win, params)
    elif isinstance(params, CwrnnParams):
        h, _, _ = _cwrnn_forward(win, params)
    elif isinstance(params, LstmParams):
        h = _lstm_loss_forward(win, params)
    else:
        raise TypeError(f"unknown parameter type {type(params).__name__}")
    preds = _predictions(h[1:], params.theta_out, loss_kind)
    return _mean_loss(preds, win.d, loss_kind)


def tbptt_gradient(
    tape: ActivationTape,
    params,
    mode: str = "replay",
    loss_kind: str = LOSS_SQUARED,
) -> dict[str, np.ndarray]:
    """Gradient of the time-smoothed loss w.r.t. every parameter block."""
    if mode not in GRADIENT_MODES:
        raise ValueError(f"mode must be one of {GRADIENT_MODES}, got {mode!r}")
    win = _window(tape)
    weights = np.full(win.m, 1.0 / win.m)
    if mode == "replay":
        grads = _replay_gradient(win, params, loss_kind, weights)
    else:
        grads = _cached_gradient(win, params, loss_kind, weights)
    for name, g in grads.items():
        _check_finite(g, int(win.ts[-1]), f"gradient block {name!r}")
    return grads


def instant_gradient(
    tape: ActivationTape, params, loss_kind: str = LOSS_SQUARED
) -> dict[str, np.ndarray]:
    """Classical TBPTT: gradient of the newest loss backpropagated through
    the stored activations, truncated at the tape anchor."""
    win = _window(tape)
    weights = np.zeros(win.m)
    weights[-1] = 1.0
    grads = _cached_gradient(win, params, loss_kind, weights)
    for name, g in grads.items():
        _check_finite(g, int(win.ts[-1]), f"gradient block {name!r}")
    return grads


def _residuals(preds: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # d(loss)/d(readout) is (prediction - target) for both loss kinds.
    return preds - targets


def _replay_gradient(win: _Window, params, loss_kind: str, weights: np.ndarray):
    if isinstance(params, SrnnParams):
        h = _srnn_forward(win, params)
        _check_finite(h, int(win.ts[-1]), "hidden state")
        preds = _predictions(h[1:], params.theta_out, loss_kind)
        resid_w = _residuals(preds, win.d) * weights
        return _elman_backward(params.w, params.theta_out, h, win.x, resid_w, None)
    if isinstance(params, CwrnnParams):
        h, active, w_eff = _cwrnn_forward(win, params)
        _check_finite(h, int(win.ts[-1]), "hidden state")
        preds = _predictions(h[1:], params.theta_out, loss_kind)
        resid_w = _residuals(preds, win.d) * weights
        grads = _elman_backward(w_eff, params.theta_out, h, win.x, resid_w, active)
        grads["w"] = grads["w"] * params.recurrent_mask()
        return grads
    if isinstance(params, LstmParams):
        h, c, gi, gf, go, gg, tc = _lstm_forward(win, params)
        _check_finite(h, int(win.ts[-1]), "hidden state")
        _check_finite(c, int(win.ts[-1]), "cell state")
        preds = _predictions(h[1:], params.theta_out, loss_kind)
        resid_w = _residuals(preds, win.d) * weights
        return _lstm_backward(params, h, c[:-1], gi, gf, go, gg, tc, win.x, resid_w)
    raise TypeError(f"unknown parameter type {type(params).__name__}")


def _cached_gradient(win: _Window, params, loss_kind: str, weights: np.ndarray):
    resid_w = _residuals(win.pred, win.d) * weights
    if isinstance(params, SrnnParams):
        return _elman_backward(params.w, params.theta_out, win.h_rec, win.x, resid_w, None)
    if isinstance(params, CwrnnParams):
        active = ((win.ts[:, None] % params.unit_periods()[None, :]) == 0).astype(np.float64)
        w_eff = params.w * params.recurrent_mask()
        grads = _elman_backward(w_eff, params.theta_out, win.h_rec, win.x, resid_w, active)
        grads["w"] = grads["w"] * params.recurrent_mask()
        return grads
    if isinstance(params, LstmParams):
        if win.gates is None:
            raise ValueError("cached LSTM gradient requires gate records on the tape")
        gi, gf, go, gg, c_prev, c_new = win.gates
        tc = np.tanh(c_new)
        return _lstm_backward(params, win.h_rec, c_prev, gi, gf, go, gg, tc, win.x, resid_w)
    raise TypeError(f"unknown parameter type {type(params).__name__}")


def fd_gradient(
    tape: ActivationTape,
    params,
    eps: float = 1e-6,
    loss_kind: str = LOSS_SQUARED,
) -> dict[str, np.ndarray]:
    """Central finite differences of the replay smoothed loss, every entry.

    The brute-force counterpart of ``tbptt_gradient(..., mode="replay")``.
    Clockwork-masked entries come out exactly zero because the forward pass
    multiplies them away.
    """
    if not (1e-8 <= eps <= 1e-3):
        raise ValueError(f"eps must lie in [1e-8, 1e-3], got {eps}")
    win = _window(tape)
    grads: dict[str, np.ndarray] = {}
    for name, arr in param_blocks(params):
        work = arr.copy()
        probe = replace_blocks(params, {name: work})
        g = np.zeros_like(work)
        flat_w = work.reshape(-1)
        flat_g = g.reshape(-1)
        for k in range(flat_w.size):
            orig = flat_w[k]
            flat_w[k] = orig + eps
            up = _smoothed_loss_from_window(win, probe, loss_kind)
            flat_w[k] = orig - eps
            down = _smoothed_loss_from_window(win, probe, loss_kind)
            flat_w[k] = orig
            flat_g[k] = (up - down) / (2.0 * eps)
        grads[name] = g
    return grads
