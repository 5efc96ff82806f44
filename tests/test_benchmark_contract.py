"""The benchmark's tracer wraps binrec functions by name, and its set-up
time counts binrec's imports; a rename, a deletion or a heavy import in
binrec should fail here rather than in a benchmark run."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import binrec

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
    # tracing.installed reads the phase-1 probe on every run, untraced too
    assert callable(getattr(importlib.import_module("binrec.optim"), "lp_feasible", None))


def test_binrec_does_not_import_scipy_stats():
    # scipy.stats costs about 0.7 s of every cold start; a fresh interpreter
    # sees what binrec itself imports, whatever this test session loaded
    code = ("import sys, binrec, binrec.cli, binrec.theory, binrec.analysis, "
            "binrec.experiments; print('scipy.stats' in sys.modules)")
    src = str(Path(binrec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
