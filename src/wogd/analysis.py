"""Local-regret accounting, theoretical bound calculators, and the
finite-difference smoothness estimator.

The regret tracked here is the running sum over steps of
||projected grad wrt vec(w)||^2 + ||projected grad wrt vec(u)||^2 for the
windowed loss; a vanishing normalized regret R(t)/t certifies convergence to
locally optimal hidden weights. The ledger and the smoothness estimator take
a block of K sampled steps of B runs in one call each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import frobenius_norms

__all__ = [
    "SmoothnessBounds",
    "SmoothnessEstimate",
    "RegretLedger",
    "smoothness_bounds",
    "regret_bound",
    "estimate_smoothness",
    "write_csv",
]


@dataclass(frozen=True)
class SmoothnessBounds:
    """Worst-case curvature constants of the windowed loss.

    beta_theta bounds the hidden-to-hidden block of the Hessian, beta_mu the
    input block, beta_theta_mu the cross block; beta is their maximum. All
    grow as (1 - lam)^-3, so they explode as the spectral radius approaches 1.
    """

    beta_theta: float
    beta_mu: float
    beta_theta_mu: float
    beta: float


def smoothness_bounds(n_h: int, n_x: int, lam: float) -> SmoothnessBounds:
    """Closed-form curvature bounds for hidden size n_h, input size n_x and
    spectral radius lam in [0, 1)."""
    if n_h < 1 or n_x < 1:
        raise ValueError("n_h and n_x must be >= 1")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lam must lie in [0, 1), got {lam}")
    denom = (1.0 - lam) ** 3
    beta_theta = 4.0 * n_h * math.sqrt(n_h) / denom
    beta_mu = 4.0 * n_x * math.sqrt(n_h) / denom
    beta_theta_mu = 4.0 * n_h * math.sqrt(n_x) / denom
    return SmoothnessBounds(
        beta_theta=beta_theta,
        beta_mu=beta_mu,
        beta_theta_mu=beta_theta_mu,
        beta=max(beta_theta, beta_mu, beta_theta_mu),
    )


def regret_bound(eta: float, w: int, T: int, n_h: int) -> float:
    """Guaranteed ceiling on the local regret after T steps when the hidden
    learning rate satisfies eta <= 1/beta: (16 sqrt(n_h)/eta) (T/w + 1)."""
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if w < 1 or T < 1 or n_h < 1:
        raise ValueError("w, T and n_h must be >= 1")
    lead = 16.0 * math.sqrt(n_h) / eta
    return lead * (T / w) + lead


@dataclass(frozen=True)
class SmoothnessEstimate:
    """One finite-difference curvature sample along an update direction.

    A block whose parameters did not move is skipped (None) rather than
    divided by zero; beta_max is the max over the defined blocks, or None
    when both are skipped.
    """

    beta_theta: float | None
    beta_mu: float | None

    @property
    def beta_max(self) -> float | None:
        vals = [v for v in (self.beta_theta, self.beta_mu) if v is not None]
        return max(vals) if vals else None


def estimate_smoothness(grad_t, grad_t1, params_t, params_t1) -> list[SmoothnessEstimate]:
    """Curvature of the same windowed loss between two parameter points, one
    sample per member of (N, ...) stacks keyed w and u: B runs, or K sampled
    steps of B runs step-major (N = K * B).

    grad_t and grad_t1 must be gradients of one and the same windowed loss,
    evaluated at params_t and params_t1 (in particular with the same window
    contents and the same output weights).
    """
    ratios = []
    for name in ("w", "u"):
        moved = frobenius_norms(params_t1[name] - params_t[name]).tolist()
        change = frobenius_norms(grad_t1[name] - grad_t[name]).tolist()
        ratios.append([None if d == 0.0 else g / d for g, d in zip(change, moved)])
    return [SmoothnessEstimate(*pair) for pair in zip(*ratios)]


class RegretLedger:
    """Running sums of squared projected-gradient norms, one entry per step.

    Also carries the per-step smoothness samples when the run records them,
    so one ledger holds both instrumentation channels. When a run samples
    every k-th step instead of every step, entries are per sample and the
    normalized column divides by the sample count.

    It records the B runs of a lockstep batch at once, an entry being a (B,)
    row (a list of B samples for smoothness); the readers below take the
    float entries of one run's ledger, member(b).
    """

    NUMERIC = ("grad_sq_theta", "grad_sq_mu", "regret", "normalized")

    def __init__(self):
        self.grad_sq_theta: list = []
        self.grad_sq_mu: list = []
        self.regret: list = []  # running sum R(t)
        self.normalized: list = []  # R(t) / t
        self.smoothness: list = []

    def __len__(self) -> int:
        return len(self.regret)

    def record_regret(self, projected_grads: dict[str, np.ndarray]) -> None:
        """Append K entries per run from the (K, B, ...) stacks keyed w and u
        of K sampled steps, or one from (B, ...) stacks. R(t) is one sequential
        accumulate: bitwise (R(t - 1) + sq_theta) + sq_mu step by step."""
        sq_theta, sq_mu = (
            np.atleast_2d(np.sum(g * g, axis=(-2, -1)))
            for g in (projected_grads["w"], projected_grads["u"])
        )
        k, batch = sq_theta.shape
        rows = np.empty((2 * k + 1, batch))
        rows[0] = self.regret[-1] if self.regret else 0.0
        rows[1::2], rows[2::2] = sq_theta, sq_mu
        total = np.add.accumulate(rows)[2::2]
        self.normalized.extend(total / np.arange(len(self) + 1, len(self) + k + 1)[:, None])
        self.grad_sq_theta.extend(sq_theta)
        self.grad_sq_mu.extend(sq_mu)
        self.regret.extend(total)
        self.smoothness.extend([None] * batch for _ in range(k))

    def record_smoothness(self, estimates: list[SmoothnessEstimate]) -> None:
        """Attach the runs' smoothness samples to the most recent entries, B
        per entry in entry order: K * B samples fill the last K entries."""
        if not self.smoothness:
            raise ValueError("record a regret entry before its smoothness sample")
        batch = len(self.smoothness[-1])
        rows = [list(estimates[i : i + batch]) for i in range(0, len(estimates), batch)]
        self.smoothness[len(self.smoothness) - len(rows) :] = rows

    def keep(self, members) -> None:
        """Drop every run not listed, by batch position."""
        for name in self.NUMERIC:
            setattr(self, name, [row[members] for row in getattr(self, name)])
        self.smoothness = [[row[b] for b in members] for row in self.smoothness]

    def member(self, b: int) -> "RegretLedger":
        """Run b's ledger: float entries and one smoothness sample (or None)
        per entry."""
        led = RegretLedger()
        for name in self.NUMERIC:
            setattr(led, name, [float(row[b]) for row in getattr(self, name)])
        led.smoothness = [row[b] for row in self.smoothness]
        return led

    @property
    def beta_exp(self) -> list[float | None]:
        return [None if e is None else e.beta_max for e in self.smoothness]


def write_csv(path, header: list[str], columns) -> None:
    """One row per index of the equal-length columns. Floats are written
    with full repr precision; None and NaN cells are left empty. A float64
    array column is formatted in one pass, the same as cell by cell."""
    cells = [
        ["" if v != v else repr(v) for v in col.tolist()]
        if isinstance(col, np.ndarray) and col.dtype == np.float64
        else [_cell(v) for v in col]
        for col in columns
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _cell(val) -> str:
    if val is None or (isinstance(val, float) and math.isnan(val)):
        return ""
    if isinstance(val, (float, np.floating)):
        return repr(float(val))
    return str(val)
