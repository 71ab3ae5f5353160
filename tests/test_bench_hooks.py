"""The benchmark's tracer wraps package attributes by name; keep them bound."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves(monkeypatch):
    # Import by path without writing bytecode next to the benchmark.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, path, _, _ in tracer.TARGETS:
        owner, attr = tracer._owner(module, path)
        assert attr in owner.__dict__, f"{module}.{path}"
