"""Every name the benchmark's tracer wraps must exist, so a refactor that
drops one fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_bench_trace_targets_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_spans", spans)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
