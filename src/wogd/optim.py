"""Optimizers: the windowed projected-gradient method (WOGD) and baselines.

Both update the (B, ...) parameter stacks of B runs elementwise, and report
per run the first non-finite update. WOGD updates the hidden weight matrices
with a constant rate eta on the windowed-loss gradient and clips their
singular values to lambda < 1 lazily, as one stacked call per block, only on
the freshly updated matrices whose Frobenius norm exceeds the trigger alpha.
As ||W||_2 <= ||W||_F, a matrix left alone may have a spectral norm up to
alpha: the spectral norms are guaranteed to stay inside lambda only when
alpha <= lambda (alpha = 0 clips every update). The output weights follow a
projected c/sqrt(t) schedule on the l2 ball.

The regret bookkeeping uses `projected_gradient`, which always performs the
true spectral projection (no alpha shortcut): that quantity defines the
regret, whatever iterates the lazy trigger lets through. It runs off the
update path, once per block of sampled steps over their (K * B, ...) stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gradients import first_failures
from .linalg import clip_singular_values, frobenius_norms, project_l2_ball
from .models import CwrnnParams, SrnnParams

__all__ = [
    "WogdConfig",
    "BaselineConfig",
    "wogd_step",
    "baseline_step",
    "projected_gradient",
    "project_l2_ball",
]

BASELINE_KINDS = ("sgd", "rmsprop", "adam")
_RMSPROP_DECAY, _BETA1, _BETA2, _EPSILON = 0.9, 0.9, 0.999, 1e-8


@dataclass
class WogdConfig:
    """Hyperparameters of the windowed online gradient descent update.

    eta: hidden-layer learning rate; lam: spectral-norm radius of the hidden
    weight constraint; alpha: Frobenius-norm trigger of the lazy projection
    (alpha = 0 projects on every step); out_lr_scale: c in the c/sqrt(t)
    output-layer schedule; out_radius: l2 bound kept on the output weights.
    """

    eta: float
    lam: float = 0.95
    alpha: float = 7.5
    out_lr_scale: float = 1.0
    out_radius: float = 1.0

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"lam must lie in [0, 1), got {self.lam}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.out_radius > 0:
            raise ValueError(f"out_radius must be positive, got {self.out_radius}")


def wogd_step(cfg: WogdConfig, family, params: dict, grads: dict, t: int):
    """One WOGD update at timestep t >= 1 of B runs, elementwise over the
    (B, ...) stacks of params and grads keyed w, u and theta_out; family is
    the runs' SrnnParams or CwrnnParams (a clockwork w keeps its mask).

    Returns the new stacks, per run the number of hidden matrices clipped
    (B,), and per run the first non-finite update (or None); the hidden
    matrices of a failed run are not clipped.
    """
    if t < 1:
        raise ValueError(f"timestep must be >= 1, got {t}")
    if not isinstance(family, SrnnParams):
        raise TypeError(
            "wogd_step constrains (w, u, theta_out) parameter triples; "
            f"got {type(family).__name__}"
        )
    new = {
        "theta_out": params["theta_out"] - (cfg.out_lr_scale / math.sqrt(t)) * grads["theta_out"],
        "w": params["w"] - cfg.eta * grads["w"],
        "u": params["u"] - cfg.eta * grads["u"],
    }
    failed = first_failures([
        ("output-weight update", new["theta_out"]),
        ("parameter update", new["w"]),
        ("parameter update", new["u"]),
    ])
    new["theta_out"] = project_l2_ball(new["theta_out"], cfg.out_radius)
    ok = np.array([f is None for f in failed])
    clips = np.zeros(len(failed), dtype=np.int64)
    for name in ("w", "u"):
        triggered = ok & (frobenius_norms(new[name]) > cfg.alpha)
        if triggered.any():
            new[name][triggered] = clip_singular_values(new[name][triggered], cfg.lam)
        clips += triggered
    if isinstance(family, CwrnnParams):
        new["w"] *= family.recurrent_mask()
    return new, clips, failed


def projected_gradient(params: dict, grads: dict, cfg: WogdConfig) -> dict[str, np.ndarray]:
    """Projected partial derivatives (1/eta)(p - Pi_K[p - eta g]) of the two
    hidden blocks of B runs, over (B, ...) stacks as in wogd_step; equals the
    raw gradient whenever the post-step point is feasible. The spectral
    projection is always applied here, regardless of alpha, because this
    quantity defines the regret being measured; a non-finite post-step point
    is left unprojected. The output block passes through unchanged.
    """
    out = {}
    for name in ("w", "u"):
        step = params[name] - cfg.eta * grads[name]
        finite = np.isfinite(step).reshape(len(step), -1).all(axis=1)
        if finite.any():
            step[finite] = clip_singular_values(step[finite], cfg.lam)
        out[name] = (params[name] - step) / cfg.eta
    out["theta_out"] = grads["theta_out"].copy()
    return out


@dataclass
class BaselineConfig:
    """First-order baseline: plain SGD, RMSprop, or Adam (bias-corrected)."""

    kind: str
    learning_rate: float

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
        decay = _RMSPROP_DECAY if cfg.kind == "rmsprop" else _BETA2
        v = moments["v", name] = decay * moments.get(("v", name), 0.0) + (1.0 - decay) * g * g
        if cfg.kind == "rmsprop":
            new[name] = arr - cfg.learning_rate * g / (np.sqrt(v) + _EPSILON)
            continue
        m = moments["m", name] = _BETA1 * moments.get(("m", name), 0.0) + (1.0 - _BETA1) * g
        m_hat = m / (1.0 - _BETA1**t)
        v_hat = v / (1.0 - _BETA2**t)
        new[name] = arr - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + _EPSILON)
    return new, first_failures([(f"update of block {name!r}", a) for name, a in new.items()])
