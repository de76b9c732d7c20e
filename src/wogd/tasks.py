"""Data plumbing for the online regression and binary-addition tasks.

CSV records stream in file order (the online setting makes order part of the
data). Features are min-max scaled to [-1, 1] and targets to
[-sqrt(n_h), sqrt(n_h)]; scaling statistics are computed over the full file
before streaming. A constant 1.0 bias dimension is appended after scaling, so
the model input size is raw features + 1.

A binary-addition run is sustainable when a streak of `horizon` correct
decisions (output > 0.5 means 1) completes within its first `cutoff` steps;
its sustainable timestep is the streak's first step. ``correct_streaks``
advances the streaks of B runs by one step.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

LOSS_SQUARED = "squared"
LOSS_CROSS_ENTROPY = "cross_entropy"

# Probabilities are clamped this far away from {0, 1} before taking logs.
CROSS_ENTROPY_CLAMP = 1e-12


class CsvFormatError(ValueError):
    """Malformed CSV input; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def losses(preds: np.ndarray, targets: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise loss of predictions against targets, arrays of any shape.

    squared:        0.5 (d - d_hat)^2
    cross_entropy:  -p log p_hat - (1-p) log(1-p_hat)

    For cross-entropy the prediction is clamped away from {0, 1} before the
    logs (saturated sigmoids round to exactly 0.0/1.0 in float64); a NaN
    prediction gives a NaN loss.
    """
    if kind == LOSS_SQUARED:
        r = preds - targets
        return 0.5 * r * r
    if kind != LOSS_CROSS_ENTROPY:
        raise ValueError(f"unknown loss kind {kind!r}")
    p = np.clip(preds, CROSS_ENTROPY_CLAMP, 1.0 - CROSS_ENTROPY_CLAMP)
    return -targets * np.log(p) - (1.0 - targets) * np.log(1.0 - p)


def load_csv_stream(path) -> np.ndarray:
    """Read a rectangular numeric CSV into a (rows x cols) float64 array.

    Row order is preserved. A single non-numeric first line is treated as a
    header. Ragged rows and non-numeric cells raise CsvFormatError with the
    offending line number; a missing file raises the usual OSError.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
            if not cells or (len(cells) == 1 and cells[0].strip() == ""):
                continue
            try:
                values = [float(c) for c in cells]
            except ValueError:
                if lineno == 1:
                    continue  # header line
                raise CsvFormatError(lineno, f"non-numeric cell in {cells!r}") from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise CsvFormatError(
                    lineno, f"expected {width} columns, found {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise CsvFormatError(1, "no data rows")
    return np.asarray(rows, dtype=np.float64)


def scaled_stream(
    records: np.ndarray, n_h: int, target_column: int = -1
) -> tuple[np.ndarray, np.ndarray]:
    """Inputs x (T, n_x) and targets d (T,) of a record matrix, in record
    order: min-max scaled by the statistics of the whole matrix (features to
    [-1, 1], the target column to [-sqrt(n_h), sqrt(n_h)], a constant column
    to 0), with the bias dimension appended. A target column outside the
    record width, or fewer than 2 records, is a ValueError."""
    records = np.asarray(records, dtype=np.float64)
    if records.ndim != 2 or records.shape[0] < 2:
        raise ValueError("need at least 2 records to fit scaling")
    cols = records.shape[1]
    if not -cols <= target_column < cols:
        raise ValueError(f"target column {target_column} out of range for {cols} columns")
    tcol = target_column % cols
    feats = records[:, [j for j in range(cols) if j != tcol]]
    fmin = feats.min(axis=0)
    span = feats.max(axis=0) - fmin
    xs = np.where(span > 0, 2.0 * (feats - fmin) / np.where(span > 0, span, 1.0) - 1.0, 0.0)
    target = records[:, tcol]
    radius = math.sqrt(n_h)
    tmin = float(target.min())
    tspan = float(target.max()) - tmin
    d = (2.0 * (target - tmin) / tspan - 1.0) * radius if tspan > 0 else np.zeros_like(target)
    bad = (np.abs(xs) > 1.0 + 1e-12).any(axis=1) | (np.abs(d) > radius + 1e-12)
    if bad.any():
        raise AssertionError(f"scaled sample out of range at row {int(np.argmax(bad))}")
    return np.column_stack([xs, np.ones(len(d))]), d


@dataclass
class BinaryAddState:
    """Carry chain of the running sum of n binary sequences.

    The carry stays below n: n bits plus a carry of at most n-1 sum to at
    most 2n - 1, whose floor-halving is again at most n - 1.
    """

    n: int
    rng: np.random.Generator
    carry: int = 0

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"number of summand sequences must be 2 or 3, got {self.n}")


def add_step(bits, carry: int) -> tuple[int, int]:
    """Binary-addition arithmetic: sum bit and next carry for one column."""
    s = int(np.sum(bits)) + carry
    return s % 2, s // 2


def binary_add_stream(state: BinaryAddState, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Continue the bit stream: at each step draw n fair bits, emit the sum
    bit, keep the carry. Returns inputs x (steps, n + 1) and targets d (steps,).

    The sum arithmetic runs on raw {0, 1} bits; the emitted model input holds
    the bits min-max scaled to {-1, +1} (the same convention as every other
    feature stream) with the bias dimension appended, so n_x = n + 1. Targets
    stay in {0, 1} for the cross-entropy loss.
    """
    x = np.ones((steps, state.n + 1))
    d = np.empty(steps)
    for k in range(steps):
        bits = state.rng.integers(0, 2, size=state.n)
        d[k], state.carry = add_step(bits, state.carry)
        assert state.carry < state.n
        x[k, :-1] = 2.0 * bits - 1.0
    return x, d


def synthetic_regression_stream(
    n_features: int,
    steps: int,
    rng: np.random.Generator,
    n_h: int,
    noise_std: float = 0.02,
) -> tuple[np.ndarray, np.ndarray]:
    """Teacher-generated regression stream for self-contained experiments:
    inputs x (steps, n_features + 1) and targets d (steps,).

    A fixed random Elman network (weights drawn from `rng`, spectral norms
    held below 1 so the stream is stable) maps uniform inputs in [-1, 1] to a
    target bounded by sqrt(n_h); the learner sees the same inputs plus the
    bias dimension.
    """
    from .linalg import spectral_norm  # deferred: tasks is otherwise linalg-free

    if steps < 1 or n_features < 1:
        raise ValueError("need steps >= 1 and n_features >= 1")
    n_teacher = 6
    w = rng.normal(0.0, 1.0, (n_teacher, n_teacher))
    w *= 0.7 / spectral_norm(w)
    u = rng.normal(0.0, 1.0, (n_teacher, n_features + 1))
    u *= 0.8 / spectral_norm(u)
    theta = rng.normal(0.0, 1.0, n_teacher)
    radius = math.sqrt(n_h)
    theta *= 0.9 * radius / (np.linalg.norm(theta) * math.sqrt(n_teacher))
    h = np.zeros(n_teacher)
    x = np.ones((steps, n_features + 1))
    d = np.empty(steps)
    for k in range(steps):
        x[k, :-1] = rng.uniform(-1.0, 1.0, n_features)
        h = np.tanh(w @ h + u @ x[k])
        d[k] = min(max(float(theta @ h) + rng.normal(0.0, noise_std), -radius), radius)
    return x, d


def correct_streaks(
    streaks: np.ndarray, predictions: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """The (B,) streaks of consecutive correct binary decisions (output > 0.5
    means 1) of B runs after one more step with the (B,) predictions and
    targets: one longer where the decision is correct, 0 where it is not."""
    return np.where((predictions > 0.5) == (targets > 0.5), streaks + 1, 0)
