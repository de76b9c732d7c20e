"""The benchmark's tracer patches wogd functions by name: every name it
lists must still exist, or traced runs lose a layer without failing."""

import importlib.util
import sys
from pathlib import Path

import wogd  # noqa: F401  (the tracer looks the modules up in sys.modules)
import wogd.cli  # noqa: F401

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
