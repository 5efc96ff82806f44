"""The benchmark's tracer wraps binrec functions by name and its hooks read
their arguments' and results' fields, and its set-up time counts binrec's
imports; a rename, a deletion or a heavy import in binrec should fail here
rather than in a benchmark run."""

import dataclasses
import importlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import binrec
from binrec import experiments, optim, recovery

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist_in_binrec(tracing):
    missing = [f"{module}.{function}" for module, function, _, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(f"binrec.{module}"),
                                       function, None))]
    assert tracing.TARGETS and not missing, missing
    # tracing.installed reads the phase-1 probe on every run, untraced too
    assert callable(getattr(importlib.import_module("binrec.optim"), "lp_feasible", None))


def test_tracer_hooks_read_what_binrec_returns(tracing):
    # the hooks read LpProblem's fields, a box solve's iterations and
    # converged, a matrix's entries and a report's program and b: a rename
    # there breaks only traced runs
    cfg = dataclasses.replace(experiments.desk_scale_config(master_seed=1), N=20,
                              k_fractions=[0.5], m_fractions=[0.5], trials=2,
                              programs=("box_bp", "mibi_bp", "box_ls"))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        experiments.run_cell(cfg, 0, 0)
        _, A, _, b = experiments.sweep_trial(cfg, 0, 0, 0)
        recovery.solve("robust_box_bp", recovery.RecoveryProblem(A, b, eta=0.1))
        # no library code calls solve_box_qp, but the tracer still wraps it
        optim.solve_box_qp(A.entries, b)
    metrics = tracing.layer_metrics(tracer)
    assert not [name for name, value in metrics.items() if not math.isfinite(value)]
    for layer in ("ensembles.gen_matrix", "optim.solve_lp", "optim.solve_box_qp"):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert [(trial.x0 is not None, [program for program, _, _ in trial.reports])
            for trial in tracer.trials] == [(True, list(cfg.programs))] * cfg.trials


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
