import dataclasses
import importlib.util
import os
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from binrec.ensembles import EnsembleConfig, _thread_cap
from binrec.experiments import (CSV_HEADER, ExperimentConfig, PhaseDiagram,
                                TrialRecord, _worker_pool, desk_scale_config,
                                grid_config, read_csv, render_heatmap,
                                run_cell, run_phase_transition, sweep_trial,
                                trial_seed, write_csv)
from binrec.recovery import (MIBI_TIE_TOL, RecoveryProblem, _certified, box_bp,
                             round_to_binary)


def _small_config(**overrides):
    kw = dict(N=20, k_fractions=[0.2, 0.8], m_fractions=[0.5, 1.0], trials=3,
              ensemble=EnsembleConfig(kind="biased", m=1, N=1, mu=1.0,
                                      sigma=1.0, lambda_bound=1.0),
              programs=("box_bp",), master_seed=11)
    kw.update(overrides)
    return ExperimentConfig(**kw)


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(trials=0)
    with pytest.raises(ValueError):
        _small_config(k_fractions=[0.5, 0.2])
    with pytest.raises(ValueError):
        _small_config(m_fractions=[0.0, 0.5])
    with pytest.raises(ValueError):
        _small_config(programs=("box_bp", "omp"))
    # a program listed twice would count its successes twice in every cell
    with pytest.raises(ValueError, match="repeat"):
        _small_config(programs=("box_bp", "box_bp"))
    with pytest.raises(ValueError):
        _small_config(k_fractions=[])
    with pytest.raises(ValueError):
        _small_config(m_fractions=[])
    # sweeps that cannot draw a matrix: m = round(0.01 * 10) = 0, or N < 1
    for bad in (dict(N=10, k_fractions=[0.5], m_fractions=[0.01, 0.5]), dict(N=0), dict(N=-20)):
        with pytest.raises(ValueError, match="no measurement"):
            _small_config(**bad)

    # caught when the config is built, not inside a pool worker
    for bad in (dict(noise_eps=-0.1), dict(noise_eps=np.nan), dict(noise_eps=np.inf),
                dict(success_tol=0.0), dict(success_tol=-1e-4), dict(success_tol=np.nan),
                dict(success_tol=np.inf)):
        with pytest.raises(ValueError):
            _small_config(**bad)
    assert _small_config(noise_eps=0.0).noise_eps == 0.0


def test_trial_seed_mixing():
    seeds = {trial_seed(0, i, j, t) for i in range(4) for j in range(4) for t in range(4)}
    assert len(seeds) == 64
    assert trial_seed(1, 0, 0, 0) != trial_seed(0, 0, 0, 0)
    assert trial_seed(5, 1, 2, 3) == trial_seed(5, 1, 2, 3)


def test_cells_independent_of_grid_context():
    cfg = _small_config()
    full = run_phase_transition(cfg)
    direct = run_cell(cfg, 1, 0)
    from_full = [r for r in full.records if (r.k, r.m) == (16, 10)]
    assert direct == from_full


def test_determinism_across_parallelism():
    cfg = _small_config()
    old = os.environ.get("BINREC_THREADS")
    try:
        os.environ["BINREC_THREADS"] = "1"
        serial = run_phase_transition(cfg)
        os.environ["BINREC_THREADS"] = "4"
        parallel = run_phase_transition(cfg)
    finally:
        if old is None:
            os.environ.pop("BINREC_THREADS", None)
        else:
            os.environ["BINREC_THREADS"] = old
    assert serial.records == parallel.records


def test_pool_workers_fill_on_one_thread(monkeypatch):
    monkeypatch.setenv("BINREC_THREADS", "4")
    with _worker_pool(2) as pool:
        assert pool.submit(_thread_cap).result(timeout=60) == 1
    assert _thread_cap() == 4


def test_zero_sparsity_cell_always_recovers():
    # k = round(0.02 * 20) = 0: b = 0 and x = 0 is the unique l1 minimizer
    cfg = _small_config(k_fractions=[0.02], m_fractions=[0.5], trials=5)
    d = run_phase_transition(cfg)
    assert d.rate(0.02, 0.5, "box_bp") == 1.0


def test_full_measurement_cell_recovers_with_density_ensemble():
    cfg = _small_config(ensemble=EnsembleConfig(kind="gaussian", m=1, N=1),
                        k_fractions=[0.2, 0.8], m_fractions=[1.0], trials=5)
    d = run_phase_transition(cfg)
    assert d.rate(0.2, 1.0, "box_bp") == 1.0
    assert d.rate(0.8, 1.0, "box_bp") == 1.0


def test_simultaneous_counts_bounded():
    cfg = _small_config(record_simultaneous=True)
    d = run_phase_transition(cfg)
    assert len(d.records) == 4 * cfg.trials
    for r in d.records:
        assert not (r.both and r.neither)
        assert r.both <= r.success and r.neither <= (not r.success)


def test_simultaneous_mirror_carries_the_trials_noise(monkeypatch):
    # 1 - x0 is measured with the same noise as x0, so both and neither
    # compare two solves of equal noise
    import binrec.experiments
    eps = 0.1
    cfg = _small_config(record_simultaneous=True, noise_eps=eps, trials=2)
    problems = []
    solve = binrec.experiments.solve

    def recorded(program, p):
        problems.append(p)
        return solve(program, p)

    monkeypatch.setattr(binrec.experiments, "solve", recorded)
    run_cell(cfg, 0, 0)
    assert len(problems) == 2 * cfg.trials
    for t in range(cfg.trials):
        _, A, x0, b = sweep_trial(cfg, 0, 0, t)
        trial, mirror = problems[2 * t:2 * t + 2]
        noise = mirror.b - A.entries @ (1.0 - x0.dense())
        assert np.linalg.norm(noise) == pytest.approx(eps, rel=1e-9)
        assert np.allclose(noise, b - A.entries @ x0.dense(), rtol=0, atol=1e-12)
        assert np.array_equal(trial.b, b) and trial.eta == mirror.eta == eps


def test_csv_header_and_roundtrip(tmp_path):
    cfg = _small_config(record_simultaneous=True)
    d = run_phase_transition(cfg)
    path = str(tmp_path / "phase.csv")
    write_csv(d, path)
    with open(path) as f:
        assert f.readline().rstrip("\n") == CSV_HEADER
    assert read_csv(path) == d.records
    assert os.path.exists(path + ".config.json")
    # a diagram read back from its CSV draws the same heatmap, byte for byte
    render_heatmap(d, "box_bp", str(tmp_path / "run.svg"))
    render_heatmap(PhaseDiagram(cfg, read_csv(path)), "box_bp", str(tmp_path / "read.svg"))
    assert (tmp_path / "run.svg").read_bytes() == (tmp_path / "read.svg").read_bytes()


def test_csv_empty_grid_header_only(tmp_path):
    d = PhaseDiagram(_small_config(), records=[])
    path = str(tmp_path / "empty.csv")
    write_csv(d, path)
    with open(path) as f:
        lines = f.readlines()
    assert lines == [CSV_HEADER + "\n"]


def _record(t, program, success, k=4):
    return TrialRecord(20, 10, k, t, program, "biased", 1.0, 0, success, None, None,
                       0.0, "optimal")


def test_heatmap_extreme_cells(tmp_path):
    cfg = _small_config(k_fractions=[0.2], m_fractions=[0.5], trials=2)
    white = str(tmp_path / "white.svg")
    render_heatmap(PhaseDiagram(cfg, [_record(t, "box_bp", True) for t in range(2)]),
                   "box_bp", white)
    assert 'fill="rgb(255,255,255)"' in Path(white).read_text()
    black = str(tmp_path / "black.svg")
    render_heatmap(PhaseDiagram(cfg, [_record(t, "box_bp", False) for t in range(2)]),
                   "box_bp", black)
    assert 'fill="rgb(0,0,0)"' in Path(black).read_text()


def test_rate_reads_each_cells_own_trials():
    # at N=10, k/N = 0.15, 0.2 and 0.25 all round to k=2; cell i holds i
    # box_bp successes and 3 - i box_ls successes of its 3 trials
    cfg = _small_config(N=10, k_fractions=[0.15, 0.2, 0.25], m_fractions=[0.5],
                        programs=("box_bp", "box_ls"))
    records = [_record(t, p, t < (i if p == "box_bp" else 3 - i), k=2)
               for i in range(3) for t in range(3) for p in cfg.programs]
    d = PhaseDiagram(cfg, records)
    assert [d.rate(f, 0.5, "box_bp") for f in cfg.k_fractions] == [0, 1 / 3, 2 / 3]
    assert [d.rate(f, 0.5, "box_ls") for f in cfg.k_fractions] == [1, 2 / 3, 1 / 3]
    with pytest.raises(ValueError):
        PhaseDiagram(cfg, records[:-1]).rate(0.15, 0.5, "box_bp")
    # a program the sweep did not run has no rate, not a rate of 0
    with pytest.raises(ValueError, match="not present"):
        d.rate(0.15, 0.5, "mibi_bp")


def test_heatmap_wellformed_xml_with_axes(tmp_path):
    cfg = _small_config()
    d = run_phase_transition(cfg)
    path = str(tmp_path / "map.svg")
    render_heatmap(d, "box_bp", path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    text = Path(path).read_text()
    assert "k/N" in text and "m/N" in text
    with pytest.raises(ValueError):
        render_heatmap(d, "box_ls", str(tmp_path / "bad.svg"))
    assert not (tmp_path / "bad.svg").exists()


def test_run_cell_solves_each_lp_once_per_trial(monkeypatch):
    # box_bp shares box-BP's report with mibi_bp, which adds the mirror LP
    # only where box-BP's point is not binary to MIBI_TIE_TOL, and with a
    # noiseless robust_box_bp, which takes box-BP's report at eta = 0.  An
    # LP runs only where no NNLS candidate is certified its optimum.
    import binrec.recovery
    cfg = _small_config()
    fractional = plain_lps = mirror_lps = 0
    for t in range(cfg.trials):
        _, A, _, b = sweep_trial(cfg, 0, 0, t)
        p = RecoveryProblem(A, b)
        x = box_bp(p).x_hat
        frac = bool(np.linalg.norm(round_to_binary(x) - x) > MIBI_TIE_TOL)
        fractional += frac
        plain_lps += _certified(p, mirror=False) is None
        mirror_lps += frac and _certified(p, mirror=True) is None
    assert 0 < fractional < cfg.trials  # the cell takes both ways through mibi_bp
    assert 0 < plain_lps < cfg.trials  # certification settles some trials, not all

    calls = []
    solve_lp = binrec.recovery.solve_lp

    def counted(p):
        calls.append(p)
        return solve_lp(p)

    monkeypatch.setattr(binrec.recovery, "solve_lp", counted)
    for second, extra in (("mibi_bp", mirror_lps), ("robust_box_bp", 0)):
        calls.clear()
        records = run_cell(_small_config(programs=("box_bp", second)), 0, 0)
        assert len(calls) == plain_lps + extra, second
        assert len({(bool(p.c[0] > 0), p.b_eq.tobytes()) for p in calls}) == len(calls)
        theirs = [r for r in records if r.program == second]
        assert len(theirs) == cfg.trials and all(r.solver_status == "optimal" for r in theirs)


def test_traced_run_cell_sees_every_program(monkeypatch):
    # the benchmark's tracer replaces the program functions as module
    # attributes; solve must look them up per call, or the traced sweep
    # captures no reports and its checks pass on nothing
    import binrec.experiments
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    cfg = _small_config(programs=("box_bp", "mibi_bp", "box_ls", "robust_box_bp"))
    with tracing.installed(tracing.Tracer()) as tracer:
        records = binrec.experiments.run_cell(cfg, 0, 0)
    assert records == run_cell(cfg, 0, 0)
    assert len(tracer.trials) == cfg.trials
    for trial in tracer.trials:
        assert [program for program, _, _ in trial.reports] == ["box_bp", "mibi_bp", "box_ls"]
    robust = [s for s in tracer.spans if s.name == "recovery.robust_box_bp"]
    assert len(robust) == cfg.trials


def test_solver_failures_recorded_not_raised():
    # robust_box_bp with eta = 0 delegates to the LP; an unreachable b makes
    # the trial infeasible, which must be logged rather than aborting
    cfg = _small_config(programs=("robust_box_bp",), noise_eps=None)
    d = run_phase_transition(cfg)
    assert all(r.solver_status for r in d.records)


def test_a_raising_program_is_an_error_record(monkeypatch, tmp_path):
    # a SolverFailure inside run_cell becomes one error record; the trial's
    # other programs are recorded as they would be without it
    import binrec.experiments
    from binrec.optim import SolverFailure
    cfg = _small_config(programs=("box_bp", "box_ls", "mibi_bp"), trials=2)
    clean = run_cell(cfg, 0, 0)
    solve = binrec.experiments.solve

    def failing(program, p):
        if program == "box_ls":
            raise SolverFailure("no verdict")
        return solve(program, p)

    monkeypatch.setattr(binrec.experiments, "solve", failing)
    records = run_cell(cfg, 0, 0)
    assert len(records) == len(clean) == 6
    for rec, ref in zip(records, clean):
        if rec.program == "box_ls":
            assert not rec.success and np.isnan(rec.l2_error)
            assert rec.solver_status == "error:SolverFailure"
        else:
            assert rec == ref
    path = str(tmp_path / "phase.csv")
    write_csv(PhaseDiagram(cfg, records), path)
    back = read_csv(path)
    assert np.array_equal([r.l2_error for r in back], [r.l2_error for r in records],
                          equal_nan=True)
    assert ([dataclasses.replace(r, l2_error=0.0) for r in back]
            == [dataclasses.replace(r, l2_error=0.0) for r in records])


def test_noisy_robust_sweep_records_only_optimal_solves():
    cfg = _small_config(programs=("robust_box_bp",), noise_eps=0.1)
    d = run_phase_transition(cfg)
    assert len(d.records) == 12
    assert all(r.solver_status == "optimal" for r in d.records)


def test_success_rate_monotone_in_m_up_to_noise():
    cfg = _small_config(N=30, k_fractions=[0.2],
                        m_fractions=[0.2, 0.4, 0.6, 0.8, 1.0], trials=16,
                        master_seed=3)
    d = run_phase_transition(cfg)
    rates = [d.rate(0.2, f, "box_bp") for f in cfg.m_fractions]
    slack = 2.0 / np.sqrt(cfg.trials)
    assert all(b >= a - slack for a, b in zip(rates, rates[1:]))


def test_presets():
    paper = grid_config(500, 0.01)
    assert paper.N == 500 and paper.trials == 25
    assert len(paper.k_fractions) == 100
    assert paper.k_fractions == paper.m_fractions == [i / 100 for i in range(1, 101)]
    assert paper.ensemble.kind == "biased" and paper.ensemble.mu == 1.0
    desk = desk_scale_config(kind="gaussian")
    assert desk.N == 100 and len(desk.k_fractions) == 10
    assert desk.ensemble.kind == "gaussian"
