"""The benchmark's tracer wraps binrec functions by name; a rename or a
deletion in binrec should fail here rather than in a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def test_tracer_targets_exist_in_binrec(monkeypatch):
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{function}" for module, function, _, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(f"binrec.{module}"),
                                       function, None))]
    assert tracing.TARGETS and not missing, missing
