"""Optimizers: the windowed projected-gradient method (WOGD) and baselines.

WOGD updates the hidden weight matrices with a constant rate eta on the
windowed-loss gradient and keeps their spectral norms inside lambda < 1; the
singular-value clipping is applied lazily, only when the Frobenius norm of
the freshly updated matrix exceeds the trigger alpha. The output weights
follow a projected c/sqrt(t) schedule on the l2 ball.

The regret bookkeeping uses `projected_gradient`, which always performs the
true spectral projection (no alpha shortcut): that quantity defines the
regret, while the lazy trigger is only a cost optimization of the parameter
update path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gradients import GRADIENT_MODES, NumericOverflowError, first_failures
from .linalg import clip_singular_values, project_l2_ball
from .models import CwrnnParams, SrnnParams, replace_blocks

__all__ = [
    "WogdConfig",
    "BaselineConfig",
    "wogd_step",
    "baseline_step",
    "projected_gradient",
    "project_l2_ball",
]

BASELINE_KINDS = ("sgd", "rmsprop", "adam")


@dataclass
class WogdConfig:
    """Hyperparameters of the windowed online gradient descent update.

    eta: hidden-layer learning rate; window: number of recent losses averaged
    into the training objective; lam: spectral-norm radius of the hidden
    weight constraint; alpha: Frobenius-norm trigger of the lazy projection
    (alpha = 0 projects on every step); out_lr_scale: c in the c/sqrt(t)
    output-layer schedule; out_radius: l2 bound kept on the output weights;
    mode: gradient flavour handed to the tape ("replay" or "cached").
    """

    eta: float
    window: int
    lam: float = 0.95
    alpha: float = 7.5
    out_lr_scale: float = 1.0
    out_radius: float = 1.0
    mode: str = "replay"

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"lam must lie in [0, 1), got {self.lam}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.out_radius > 0:
            raise ValueError(f"out_radius must be positive, got {self.out_radius}")
        if self.mode not in GRADIENT_MODES:
            raise ValueError(f"unknown gradient mode {self.mode!r}")


def _lazy_project(
    updated: np.ndarray, lam: float, alpha: float, t: int
) -> tuple[np.ndarray, int]:
    if not np.isfinite(updated).all():
        raise NumericOverflowError(t, "parameter update")
    if float(np.linalg.norm(updated)) > alpha:
        return clip_singular_values(updated, lam), 1
    return updated, 0


def wogd_step(cfg: WogdConfig, params, grads: dict[str, np.ndarray], t: int):
    """One WOGD update at timestep t >= 1.

    Returns (new_params, projections_applied) where the second element counts
    how many of the two hidden matrices actually went through the
    singular-value clip this step.
    """
    if t < 1:
        raise ValueError(f"timestep must be >= 1, got {t}")
    if not isinstance(params, (SrnnParams, CwrnnParams)):
        raise TypeError(
            "wogd_step constrains (w, u, theta_out) parameter triples; "
            f"got {type(params).__name__}"
        )
    out_lr = cfg.out_lr_scale / math.sqrt(t)
    theta_new = params.theta_out - out_lr * grads["theta_out"]
    if not np.isfinite(theta_new).all():
        raise NumericOverflowError(t, "output-weight update")
    theta_new = project_l2_ball(theta_new, cfg.out_radius)
    w_new, trig_w = _lazy_project(params.w - cfg.eta * grads["w"], cfg.lam, cfg.alpha, t)
    u_new, trig_u = _lazy_project(params.u - cfg.eta * grads["u"], cfg.lam, cfg.alpha, t)
    if isinstance(params, CwrnnParams):
        w_new = w_new * params.recurrent_mask()
    new_params = replace_blocks(params, {"w": w_new, "u": u_new, "theta_out": theta_new})
    return new_params, trig_w + trig_u


def projected_gradient(params, grads: dict[str, np.ndarray], cfg: WogdConfig) -> dict[str, np.ndarray]:
    """Projected partial derivatives (1/eta)(p - Pi_K[p - eta g]) for the two
    hidden blocks; equals the raw gradient whenever the post-step point is
    feasible. The spectral projection is always applied here, regardless of
    alpha, because this quantity defines the regret being measured. The
    output block passes through unchanged.
    """
    pw = (params.w - clip_singular_values(params.w - cfg.eta * grads["w"], cfg.lam)) / cfg.eta
    pu = (params.u - clip_singular_values(params.u - cfg.eta * grads["u"], cfg.lam)) / cfg.eta
    return {"w": pw, "u": pu, "theta_out": grads["theta_out"].copy()}


@dataclass
class BaselineConfig:
    """First-order baseline: plain SGD, RMSprop, or Adam (bias-corrected)."""

    kind: str
    learning_rate: float
    rmsprop_decay: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"kind must be one of {BASELINE_KINDS}, got {self.kind!r}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")


def baseline_step(
    cfg: BaselineConfig,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    moments: dict,
    t: int,
) -> tuple[dict[str, np.ndarray], list[str | None]]:
    """One unconstrained update of every parameter block (including the
    readout) of B runs, elementwise over the (B, ...) stacks of params and
    grads keyed like param_blocks. moments holds the runs' RMSprop/Adam
    averages as stacks keyed (moment, block); it starts empty and is updated
    in place. t counts from 1 and drives Adam's bias correction.

    Returns the new stacks and, per run, the first block whose update is
    non-finite (or None).
    """
    if t < 1:
        raise ValueError(f"timestep must be >= 1, got {t}")
    new: dict[str, np.ndarray] = {}
    for name, arr in params.items():
        g = grads[name]
        if cfg.kind == "sgd":
            new[name] = arr - cfg.learning_rate * g
            continue
        decay = cfg.rmsprop_decay if cfg.kind == "rmsprop" else cfg.beta2
        v = moments["v", name] = decay * moments.get(("v", name), 0.0) + (1.0 - decay) * g * g
        if cfg.kind == "rmsprop":
            new[name] = arr - cfg.learning_rate * g / (np.sqrt(v) + cfg.epsilon)
            continue
        m = moments["m", name] = cfg.beta1 * moments.get(("m", name), 0.0) + (1.0 - cfg.beta1) * g
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        new[name] = arr - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return new, first_failures([(f"update of block {name!r}", a) for name, a in new.items()])
