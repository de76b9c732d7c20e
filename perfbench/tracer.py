"""Outside-in tracer: spans around wogd's public functions, from the benchmark.

``instrument`` swaps each traced function for a wrapper in every wogd module
that binds it (callers look names up in their own module, e.g. ``optim``
imports ``clip_singular_values`` from ``linalg``) and puts the originals back
on exit. Each call leaves a span: name, start, end, parent span and
attributes. Spans stay in memory; ``layer_metrics`` turns one job's spans
into the per-layer metrics, and the worker writes the last job's spans out.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans named after it.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

LAYERS = ("tasks", "models", "gradients", "optim", "linalg", "analysis", "harness", "cli")

# SVD shapes timed one by one: the learner's w and u at n_h=10 with a 4-wide
# input, and the synthetic teacher's w and u.
SVD_SHAPES = ("10x10", "10x4", "6x6", "6x4")

GRADIENT_SPANS = ("gradients.tbptt_gradient", "gradients.instant_gradient")
UPDATE_SPANS = ("optim.wogd_step", "optim.baseline_step")
ANALYSIS_SPANS = ("analysis.estimate_smoothness", "analysis.RegretLedger.record_regret")
EMIT_SPANS = ("harness.aggregate", "harness.emit_outputs")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    attrs: dict


def _window_attrs(tape, *args, **kwargs) -> dict:
    return {"window": len(tape)}


def _shape_attrs(m, *args, **kwargs) -> dict:
    rows, cols = np.shape(m)
    return {"shape": f"{rows}x{cols}"}


def _clip_after(result, m, *args, **kwargs) -> dict:
    return {"changed": not np.array_equal(result, m)}


# (module, attribute path, attributes before the call, attributes after it)
TARGETS = (
    ("harness", "run_single", None, None),
    ("models", "step_model", None, None),
    ("models", "readout", None, None),
    ("gradients", "ActivationTape.push", None, None),
    ("gradients", "tbptt_gradient", _window_attrs, None),
    ("gradients", "instant_gradient", _window_attrs, None),
    ("optim", "wogd_step", None, None),
    ("optim", "baseline_step", None, None),
    ("optim", "projected_gradient", None, None),
    ("linalg", "svd", _shape_attrs, None),
    ("linalg", "clip_singular_values", None, _clip_after),
    ("analysis", "estimate_smoothness", None, None),
    ("analysis", "RegretLedger.record_regret", None, None),
    ("harness", "aggregate", None, None),
    ("harness", "emit_outputs", None, None),
    ("cli", "main", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn, before=None, after=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, attrs)
            if after:
                attrs.update(after(result, *args, **kwargs))
            return result

        return traced


def _targets():
    """(span name, owner, attribute, function, before, after), one per target;
    the stream builders of tasks are every public ``*_stream`` function."""
    tasks = sys.modules["wogd.tasks"]
    listed = list(TARGETS) + [
        ("tasks", name, None, None)
        for name in sorted(vars(tasks))
        if name.endswith("_stream") and not name.startswith("_") and callable(getattr(tasks, name))
    ]
    for module, path, before, after in listed:
        owner = sys.modules[f"wogd.{module}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        yield f"{module}.{path}", owner, attr, getattr(owner, attr), before, after


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced function through ``tracer`` for the duration."""
    import wogd  # noqa: F401  (loads every module the targets live in)
    import wogd.cli  # noqa: F401

    modules = [m for n, m in sys.modules.items() if n == "wogd" or n.startswith("wogd.")]
    saved = []
    try:
        for name, owner, attr, fn, before, after in _targets():
            wrapped = tracer.wrap(name, fn, before, after)
            if isinstance(owner, type):
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        saved.append((module, key, fn))
                        setattr(module, key, wrapped)
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def step_intervals_ms(spans: list[Span]) -> list[float]:
    """Times between successive ``models.step_model`` starts of one run."""
    last: dict[int, float] = {}
    out = []
    for s in spans:
        if s.name != "models.step_model":
            continue
        prev = last.get(s.parent)
        if prev is not None:
            out.append((s.start - prev) * 1e3)
        last[s.parent] = s.start
    return out


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced job that took ``wall_s`` seconds."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(*names) -> float:
        return sum((selfs[i] for n in names for i in by_name.get(n, ())), 0.0)

    def calls(*names) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    m: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, selfs):
        layer_self[s.name.split(".", 1)[0]] += t
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / wall_s

    grad_s = total(*GRADIENT_SPANS)
    replayed = sum(spans[i].attrs["window"] for n in GRADIENT_SPANS for i in by_name.get(n, ()))
    m["gradients.grad_s"] = grad_s
    m["gradients.grad_calls"] = calls(*GRADIENT_SPANS)
    m["gradients.replayed_steps"] = replayed
    m["gradients.us_per_replayed_step"] = grad_s / replayed * 1e6 if replayed else 0.0
    m["gradients.push_s"] = total("gradients.ActivationTape.push")

    svds = by_name.get("linalg.svd", ())
    m["linalg.svd_s"] = total("linalg.svd")
    m["linalg.svd_calls"] = len(svds)
    for shape in SVD_SHAPES:
        at = [selfs[i] for i in svds if spans[i].attrs["shape"] == shape]
        m[f"linalg.svd_us.{shape}"] = sum(at) / len(at) * 1e6 if at else 0.0
    clips = by_name.get("linalg.clip_singular_values", ())
    changed = sum(spans[i].attrs.get("changed", False) for i in clips)
    m["linalg.clip_active_ratio"] = changed / len(clips) if clips else 0.0

    wogd_steps = set(by_name.get("optim.wogd_step", ()))
    projections = sum(spans[i].parent in wogd_steps for i in clips)
    m["optim.update_s"] = total(*UPDATE_SPANS)
    m["optim.update_calls"] = calls(*UPDATE_SPANS)
    m["optim.projections"] = projections
    m["optim.projection_ratio"] = projections / (2 * len(wogd_steps)) if wogd_steps else 0.0
    m["optim.projected_gradient_s"] = total("optim.projected_gradient")

    m["models.step_s"] = total("models.step_model")
    m["models.step_calls"] = calls("models.step_model")
    m["models.readout_s"] = total("models.readout")

    streams = [n for n in by_name if n.startswith("tasks.")]
    m["tasks.stream_s"] = total(*streams)
    m["tasks.stream_calls"] = calls(*streams)

    m["analysis.s"] = total(*ANALYSIS_SPANS)
    m["analysis.calls"] = calls(*ANALYSIS_SPANS)

    m["harness.loop_self_s"] = total("harness.run_single")
    m["harness.emit_s"] = total(*EMIT_SPANS)
    m["cli.self_s"] = total("cli.main")
    return m


def median_metrics(per_job: list[dict[str, float]], intervals_ms: list[float]) -> dict[str, float]:
    """Median of each metric over the traced jobs, plus step-time percentiles
    over every step interval seen."""
    out = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
    if len(intervals_ms) >= 2:
        q = statistics.quantiles(intervals_ms, n=100)
        out["harness.step_ms.p50"] = q[49]
        out["harness.step_ms.p99"] = q[98]
    else:
        out["harness.step_ms.p50"] = out["harness.step_ms.p99"] = 0.0
    return out
