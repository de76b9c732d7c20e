"""Gradients of the time-smoothed loss via truncated backpropagation.

The ``ActivationTape`` keeps the last `w` observed steps of B runs trained in
lockstep (one run is the B = 1 case), plus the hidden state at the window's
left edge (the anchor), as time-major arrays whose windows are contiguous
views. Gradients come in two flavours:

* ``replay`` (default): re-run the forward pass from the anchor over the
  window's inputs with the *current* parameters, then backpropagate the mean
  of the window losses, treating the anchor as a constant. This is the exact
  gradient of the windowed loss under truncation. The replay runs the
  family's forward kernel from ``models``, whose m = 1 case is the online
  step; this module holds the tape and the backward passes.
* ``cached``: backpropagate through the activations stored on the tape
  (computed under the historical parameters) with the current weight
  matrices. The classical, cheaper TBPTT approximation.

Each family has one kernel over the runs of a tape: ``elman_window_gradient``
(SRNN and CWRNN) and ``lstm_window_gradient``. Over a tape, ``tbptt_gradient``
is the gradient of the window's mean loss (WOGD's), and ``instant_gradient``
the cached-mode gradient of the newest loss only (the first-order
baselines'). Both take (B, ...) parameter stacks keyed like param_blocks and
return the (B, ...) gradient stacks with, per member, the first non-finite
quantity or None.

``smoothed_loss`` and ``fd_gradient`` read a one-run tape under one set of
parameters. The finite-difference oracle ``fd_gradient`` is batched over
members: the +-eps probes of a chunk of entries run as the members of one
forward-kernel call. Its gradients are returned as a dict keyed by
parameter-block name, with the shapes of the parameter arrays.
"""

from __future__ import annotations

import numpy as np

from .models import (
    LstmGates,
    LstmParams,
    SrnnParams,
    clockwork,
    elman_forward,
    lstm_forward,
    member_major,
    param_blocks,
    readout,
)
from .tasks import LOSS_SQUARED, losses

GRADIENT_MODES = ("replay", "cached")
_FD_CHUNK = 32  # entries fd_gradient perturbs per kernel call, as 2 * _FD_CHUNK members


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


_STATES = ("h", "c")  # arrays that also hold the anchor, one entry ahead


class ActivationTape:
    """The last `capacity` steps of B runs plus the anchor state one step
    before the oldest of them; one run is the B = 1 case.

    Single-writer: owned by one training loop. Steps are numbered 1, 2, ...
    in push order; `t` is the newest and `ts` the window's. The arrays hold
    up to 2 * capacity steps. When they are full, the kept window and its
    anchor shift to the front in place, so memory stays O(capacity) and every
    window is a contiguous time-major view: inputs x (m, B, n_x), targets d
    and recorded predictions pred (m, B), states h (m + 1, B, n_h) with h[0]
    the anchor. A tape made with an anchor cell c0 is an LSTM tape: it also
    holds the cells c (m + 1, B, n_h) and the gates i, f, o, g (m, B, n_h).
    """

    def __init__(self, capacity: int, h0: np.ndarray, n_x: int, c0: np.ndarray | None = None):
        if capacity < 1:
            raise ValueError(f"tape capacity must be >= 1, got {capacity}")
        h0 = np.atleast_2d(h0)
        batch, n_h = h0.shape
        size = 2 * capacity
        self.capacity = capacity
        self._buf = {
            "x": np.empty((size, batch, n_x)),
            "d": np.empty((size, batch)),
            "pred": np.empty((size, batch)),
            "h": np.empty((size + 1, batch, n_h)),
        }
        self._buf["h"][0] = h0
        if c0 is not None:
            self._buf["c"] = np.empty((size + 1, batch, n_h))
            self._buf["c"][0] = c0
            for gate in "ifog":
                self._buf[gate] = np.empty((size, batch, n_h))
        self.start = 0  # oldest step of the window; h[start] is its anchor
        self.end = 0  # one past the newest step
        self.t = 0

    def __len__(self) -> int:
        return self.end - self.start

    def _view(self, name: str) -> np.ndarray:
        return self._buf[name][self.start : self.end + (name in _STATES)]

    x = property(lambda self: self._view("x"))
    d = property(lambda self: self._view("d"))
    pred = property(lambda self: self._view("pred"))
    h = property(lambda self: self._view("h"))

    @property
    def c(self) -> np.ndarray | None:
        return self._view("c") if "c" in self._buf else None

    @property
    def gates(self) -> tuple[np.ndarray, ...] | None:
        """Views (i, f, o, g) of an LSTM tape, None on any other."""
        return tuple(self._view(g) for g in "ifog") if "c" in self._buf else None

    @property
    def ts(self) -> np.ndarray:
        return np.arange(self.t - len(self) + 1, self.t + 1)

    @property
    def state(self) -> np.ndarray:
        """Newest hidden states, (B, n_h)."""
        return self._buf["h"][self.end]

    def push(self, x, d, pred, h, gates: LstmGates | None = None) -> "ActivationTape":
        """Append one step of every member: input, target, prediction, new
        hidden state and, on an LSTM tape, the step's gate record (whose
        c_new is the new cell)."""
        buf = self._buf
        if self.end == len(buf["x"]):
            s, m = self.start, self.end - self.start
            for name, a in buf.items():
                n = m + (name in _STATES)
                a[:n] = a[s : s + n]
            self.start, self.end = 0, m
        e = self.end
        buf["x"][e] = x
        buf["d"][e] = d
        buf["pred"][e] = pred
        buf["h"][e + 1] = h
        if "c" in buf:
            buf["c"][e + 1] = gates.c_new
            for gate in "ifog":
                buf[gate][e] = getattr(gates, gate)
        self.end = e + 1
        self.t += 1
        if self.end - self.start > self.capacity:
            self.start += 1
        return self

    def keep(self, members) -> None:
        """Drop every member not listed, by batch position."""
        # take, not a[:, members]: that copy is laid out member-major, so
        # every window would be a strided view.
        self._buf = {name: a.take(members, axis=1) for name, a in self._buf.items()}


def _window_length(tape: ActivationTape) -> int:
    if len(tape) == 0:
        raise ValueError("tape is empty")
    return len(tape)


def _cells(tape: ActivationTape) -> np.ndarray:
    if tape.c is None:
        raise ValueError("LSTM gradients need a tape made with an anchor cell c0")
    return tape.c


# ---------------------------------------------------------------------------
# Elman backward pass (SRNN and CWRNN), batched like models.elman_forward
# ---------------------------------------------------------------------------


def _elman_backward(
    w: np.ndarray,
    theta: np.ndarray,
    h: np.ndarray,
    hb: np.ndarray,
    xb: np.ndarray,
    resid_w: np.ndarray,
    active: np.ndarray | None,
) -> dict[str, np.ndarray]:
    """Backward pass for h_t = tanh(w h_{t-1} + u x_t) given loss-weighted
    residuals resid_w (B, m). The states come time-major (h) for the loop
    and member-major (hb (B, m + 1, n_h)) for the sums over time, next to
    the member-major inputs xb. `active` (m, B|1, n_h), boolean, routes
    copied units through an identity Jacobian (clockwork case). The loop
    steps through dh and deltas, both C-contiguous and time-major,
    (m, B, n_h, 1). Returns (B, ...) stacks."""
    g_out = np.matmul(resid_w[:, None, :], hb[:, 1:])[:, 0]
    # dh_t = theta r_t + carry, accumulated in place, newest step first.
    dh = np.multiply(resid_w.T[:, :, None], theta, order="C")[..., None]
    tanhp = 1.0 - h[1:] * h[1:]
    inactive = [None] * len(tanhp)
    if active is not None:
        tanhp = tanhp * active[..., None]
        inactive = ~active[..., None]
    deltas = np.empty(tanhp.shape)
    carry = np.zeros(h.shape[1:])
    wt = w.swapaxes(1, 2)
    matmul, add, multiply = np.matmul, np.add, np.multiply
    for dh_i, tp_i, d_i, idle in zip(dh[::-1], tanhp[::-1], deltas[::-1], inactive[::-1]):
        add(dh_i, carry, out=dh_i)
        multiply(dh_i, tp_i, out=d_i)
        matmul(wt, d_i, out=carry)
        if idle is not None:
            carry += dh_i * idle
    dt = member_major(deltas[..., 0]).swapaxes(1, 2)
    g_w = np.matmul(dt, hb[:, :-1])
    g_u = np.matmul(dt, xb)
    return {"w": g_w, "u": g_u, "theta_out": g_out}


def elman_window_gradient(
    x: np.ndarray,
    d: np.ndarray,
    pred: np.ndarray,
    h: np.ndarray,
    ts: np.ndarray,
    w: np.ndarray,
    u: np.ndarray,
    theta: np.ndarray,
    mode: str,
    loss_kind: str,
    weights: np.ndarray,
    clock: SrnnParams | None = None,
) -> tuple[dict[str, np.ndarray], list[str | None]]:
    """Loss-weighted window gradients of B Elman runs in lockstep.

    The window is time-major, as an ActivationTape holds it: inputs x
    (m, B, n_x), targets d and recorded predictions pred (m, B), the anchor
    plus recorded states h (m + 1, B, n_h), and the timesteps ts, (m,) or per
    member (m, B). Replay mode re-runs the window from h[0] with the stacked
    parameters (w, u, theta) and reads neither pred nor h[1:], so members may
    carry windows from different anchors and timesteps; cached mode uses the
    recorded pred and h.
    `clock` is any member's parameters (or None for the SRNN); a CwrnnParams
    brings the clockwork mask and schedule. Returns the gradient stacks and,
    per member, the first non-finite quantity (the replayed states, then the
    gradient blocks in order) or None.
    """
    h = h[..., None]  # the kernels' state layout, (m + 1, B, n_h, 1)
    xb = member_major(x)
    w, active = clockwork(w, clock, ts)
    states = elman_forward(xb, h[0], w, u, active) if mode == "replay" else h
    hb = member_major(states[..., 0])
    if mode == "replay":
        preds = readout(hb[:, 1:], theta, loss_kind)
    else:
        preds = member_major(pred)
    # d(loss)/d(readout) is (prediction - target) for both loss kinds.
    resid_w = (preds - member_major(d)) * weights
    grads = _elman_backward(w, theta, states, hb, xb, resid_w, active)
    if active is not None:
        grads["w"] = grads["w"] * clock.recurrent_mask()

    states = [("hidden state", states.swapaxes(0, 1))] if mode == "replay" else []
    return grads, first_failures(states + _gradient_checks(grads))


def first_failures(checks) -> list[str | None]:
    """Per member, the name of the first check whose (B, ...) array holds a
    non-finite value, or None; checks are (name, array) pairs in order."""
    failed: list[str | None] = [None] * len(checks[0][1])
    for what, arr in reversed(checks):  # the earliest failing check wins
        finite = np.isfinite(arr)
        if not finite.all():
            for b in np.flatnonzero(~finite.reshape(len(arr), -1).all(axis=1)):
                failed[b] = what
    return failed


def _gradient_checks(grads: dict[str, np.ndarray]) -> list[tuple[str, np.ndarray]]:
    return [(f"gradient block {name!r}", g) for name, g in grads.items()]


# ---------------------------------------------------------------------------
# LSTM backward pass, batched like models.lstm_forward
# ---------------------------------------------------------------------------


def _lstm_backward(w, theta, hb, c_prev, gi, gf, go, gg, tc, xb, resid_w) -> dict[str, np.ndarray]:
    """Backward pass of the LSTM with gate stacks w (B, 4 n_h, n_h) and
    readouts theta (B, n_h) given loss-weighted residuals resid_w (B, m). The
    previous cells c_prev, gates and tanh(c_t) tc come time-major (m, B, n_h)
    for the loop, the states hb (B, m + 1, n_h) and inputs xb (B, m, n_x)
    member-major for the sums over time. The loop steps through the readout
    terms rv_t = theta r_t, C-contiguous and time-major (m, B, n_h). Returns
    (B, ...) stacks keyed like param_blocks."""
    n_h = theta.shape[1]
    g_out = np.matmul(resid_w[:, None, :], hb[:, 1:])[:, 0]
    rv = np.multiply(resid_w.T[:, :, None], theta, order="C")
    si = gi * (1.0 - gi)
    sf = gf * (1.0 - gf)
    so = go * (1.0 - go)
    sg = 1.0 - gg * gg
    tcp = 1.0 - tc * tc
    # da_t (m, B, 4 n_h, 1): d(loss)/d(pre-activations), gate by gate
    da = np.empty(gi.shape[:2] + (4 * n_h, 1))
    parts = [da[:, :, k * n_h : (k + 1) * n_h, 0] for k in range(4)]
    carry = np.zeros(theta.shape + (1,))
    carry_h, carry_c = carry[..., 0], np.zeros(theta.shape)
    dh, dc = np.empty(theta.shape), np.empty(theta.shape)
    wt = w.swapaxes(1, 2)
    add, multiply, matmul = np.add, np.multiply, np.matmul  # the loop is call-bound
    steps = zip(rv, go, tcp, gg, si, c_prev, sf, tc, so, gi, sg, gf, da, *parts)
    for rv_t, go_t, tcp_t, gg_t, si_t, cp_t, sf_t, tc_t, so_t, gi_t, sg_t, gf_t, da_t, *d in (
        reversed(list(steps))
    ):
        add(rv_t, carry_h, out=dh)
        multiply(dh, go_t, out=dc)
        multiply(dc, tcp_t, out=dc)
        add(dc, carry_c, out=dc)
        for d_k, x_t, s_t in ((d[0], gg_t, si_t), (d[1], cp_t, sf_t), (d[3], gi_t, sg_t)):
            multiply(dc, x_t, out=d_k)
            multiply(d_k, s_t, out=d_k)
        multiply(dh, tc_t, out=d[2])
        multiply(d[2], so_t, out=d[2])
        multiply(dc, gf_t, out=carry_c)
        matmul(wt, da_t, out=carry)
    da = da[..., 0]
    dab = member_major(da)
    g_w = np.matmul(dab.swapaxes(1, 2), hb[:, :-1])
    g_u = np.matmul(dab.swapaxes(1, 2), xb)
    return {"w": g_w, "u": g_u, "b": da.sum(axis=0), "theta_out": g_out}


def lstm_window_gradient(
    x, d, pred, h, c, gates, params, mode: str, loss_kind: str, weights: np.ndarray
) -> tuple[dict[str, np.ndarray], list[str | None]]:
    """Loss-weighted window gradients of B LSTM runs in lockstep.

    The window is time-major, as an LSTM ActivationTape holds it: inputs x
    (m, B, n_x), targets d and recorded predictions pred (m, B), the anchor
    plus recorded states h and cells c (m + 1, B, n_h), and the recorded
    gates (i, f, o, g), each (m, B, n_h). params are (B, ...) stacks keyed
    like param_blocks. Replay mode re-runs the window from h[0] and c[0] and
    reads only those of the recorded activations; cached mode uses them all.
    Returns the gradient stacks and, per member, the first non-finite
    quantity (states, cells, then the gradient blocks in order) or None.
    """
    xb = member_major(x)
    w, theta = params["w"], params["theta_out"]
    if mode == "replay":
        h, c, gi, gf, go, gg, tc = lstm_forward(xb, h[0], c[0], w, params["u"], params["b"])
    else:
        gi, gf, go, gg = gates
        tc = np.tanh(c[1:])
    hb = member_major(h)
    preds = readout(hb[:, 1:], theta, loss_kind) if mode == "replay" else member_major(pred)
    resid_w = (preds - member_major(d)) * weights
    grads = _lstm_backward(w, theta, hb, c[:-1], gi, gf, go, gg, tc, xb, resid_w)
    states = [("hidden state", h.swapaxes(0, 1)), ("cell state", c.swapaxes(0, 1))]
    return grads, first_failures((states if mode == "replay" else []) + _gradient_checks(grads))


def _window_gradient(tape: ActivationTape, params, family, mode: str, loss_kind: str, weights):
    """Loss-weighted window gradients of every run on the tape, through the
    kernel of the family of the parameters `family`: params are (B, ...)
    stacks keyed like param_blocks. Returns (grads, failed) as the family
    kernels do."""
    if isinstance(family, LstmParams):
        return lstm_window_gradient(
            tape.x, tape.d, tape.pred, tape.h, _cells(tape), tape.gates, params, mode, loss_kind,
            weights,
        )
    if not isinstance(family, SrnnParams):
        raise TypeError(f"unknown parameter type {type(family).__name__}")
    return elman_window_gradient(
        tape.x, tape.d, tape.pred, tape.h, tape.ts, params["w"], params["u"],
        params["theta_out"], mode, loss_kind, weights, family,
    )


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def smoothed_loss(tape: ActivationTape, params, loss_kind: str = LOSS_SQUARED) -> float:
    """Mean of the per-step losses over the tape, evaluated at `params`.

    Replay semantics: the window is re-run from the anchor with the given
    parameters, so this is a function of (tape contents, params).
    """
    blocks = {name: a[None] for name, a in param_blocks(params)}
    return float(_smoothed_loss(tape, blocks, params, loss_kind)[0])


def _smoothed_loss(tape: ActivationTape, blocks, family, loss_kind: str) -> np.ndarray:
    """Replay mean losses (B,) of a one-run tape under (B, ...) stacks keyed
    like param_blocks of the family of `family`, as B members of one call."""
    if tape.state.shape[0] != 1:
        raise ValueError(f"expected a one-run tape, got {tape.state.shape[0]} members")
    _window_length(tape)
    batch = len(blocks["theta_out"])
    xb = np.repeat(member_major(tape.x), batch, axis=0)
    h0 = np.repeat(tape.h[0], batch, axis=0)
    if isinstance(family, LstmParams):
        c0 = np.repeat(_cells(tape)[0], batch, axis=0)
        h = lstm_forward(xb, h0, c0, blocks["w"], blocks["u"], blocks["b"])[0]
    elif isinstance(family, SrnnParams):
        w, active = clockwork(blocks["w"], family, tape.ts)
        h = elman_forward(xb, h0[..., None], w, blocks["u"], active)[..., 0]
    else:
        raise TypeError(f"unknown parameter type {type(family).__name__}")
    preds = readout(member_major(h)[:, 1:], blocks["theta_out"], loss_kind)
    return np.mean(losses(preds, tape.d[:, 0], loss_kind), axis=-1)


def tbptt_gradient(
    tape: ActivationTape, params, family, mode: str = "replay", loss_kind: str = LOSS_SQUARED
):
    """Gradients of the time-smoothed loss, the mean of the window's losses,
    of every run on the tape: params are (B, ...) stacks keyed like
    param_blocks of the family of the parameters `family`. Returns the
    gradient stacks and, per member, the first non-finite quantity or None."""
    if mode not in GRADIENT_MODES:
        raise ValueError(f"mode must be one of {GRADIENT_MODES}, got {mode!r}")
    m = _window_length(tape)
    return _window_gradient(tape, params, family, mode, loss_kind, np.full(m, 1.0 / m))


def instant_gradient(tape: ActivationTape, params, family, loss_kind: str = LOSS_SQUARED):
    """Classical TBPTT, as tbptt_gradient returns it: the gradient of the
    newest loss backpropagated through the stored activations, truncated at
    the tape anchor."""
    weights = np.zeros(_window_length(tape))
    weights[-1] = 1.0
    return _window_gradient(tape, params, family, "cached", loss_kind, weights)


def fd_gradient(
    tape: ActivationTape, params, eps: float = 1e-6, loss_kind: str = LOSS_SQUARED
) -> dict[str, np.ndarray]:
    """Central finite differences of the replay smoothed loss, every entry.

    The brute-force counterpart of ``tbptt_gradient(..., mode="replay")``
    at B = 1.
    Clockwork-masked entries come out exactly zero because the forward pass
    multiplies them away.
    """
    if not (1e-8 <= eps <= 1e-3):
        raise ValueError(f"eps must lie in [1e-8, 1e-3], got {eps}")
    blocks = dict(param_blocks(params))
    grads: dict[str, np.ndarray] = {}
    for name, arr in blocks.items():
        g = np.empty(arr.size)
        for lo in range(0, arr.size, _FD_CHUNK):
            k = min(_FD_CHUNK, arr.size - lo)
            stack = {n: np.repeat(a[None], 2 * k, axis=0) for n, a in blocks.items()}
            probe, rows = stack[name].reshape(2 * k, -1), np.arange(k)  # writes into stack
            probe[rows, lo + rows] += eps
            probe[k + rows, lo + rows] -= eps
            loss = _smoothed_loss(tape, stack, params, loss_kind)
            g[lo : lo + k] = (loss[:k] - loss[k:]) / (2.0 * eps)
        grads[name] = g.reshape(arr.shape)
    return grads
