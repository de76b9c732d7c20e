"""The benchmark's tracer patches wogd functions by name: every name it
lists must still exist, and the online loop must call them, or traced runs
lose a layer without failing."""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

import wogd  # noqa: F401  (the tracer looks the modules up in sys.modules)
import wogd.cli  # noqa: F401
from wogd.harness import ExperimentConfig, run_batch

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = load_tracer()
    targets = list(tracer._targets())  # getattr raises on a renamed or deleted name
    names = [name for name, *_ in targets]
    assert names[: len(tracer.TARGETS)] == [f"{mod}.{path}" for mod, path, *_ in tracer.TARGETS]
    assert any(name.startswith("tasks.") for name in names[len(tracer.TARGETS) :])
    for name, _owner, _attr, fn, _before, _after in targets:
        assert callable(fn), name


@pytest.mark.parametrize(
    "model, optimizer", [("srnn", "wogd"), ("lstm", "adam")], ids=["srnn-wogd", "lstm-adam"]
)
def test_traced_batch_counts_every_step_model_call(model, optimizer):
    # one step_model call per batch step, whatever B is, a readout in each
    # step, and one gradient call per step (WOGD's tbptt_gradient, the
    # baselines' instant_gradient)
    tracer = load_tracer()
    steps = 12
    cfg = ExperimentConfig(
        task="synthetic", features=2, steps=steps, model=model, n_h=4, optimizer=optimizer,
        window=5,
    )
    spans = tracer.Tracer()
    with tracer.instrument(spans):
        start = time.perf_counter()
        run_batch(cfg, (1, 2))
        wall = time.perf_counter() - start
    metrics = tracer.layer_metrics(spans.spans, wall)
    assert metrics["models.step_calls"] == steps
    assert sum(s.name == "models.readout" for s in spans.spans) >= steps
    assert metrics["gradients.grad_calls"] == steps
