import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from binrec import analysis, recovery, theory
from binrec.cli import main
from binrec.ensembles import EnsembleConfig, gen_matrix, gen_sparse_binary
from binrec.optim import SolverFailure
from binrec.recovery import RecoveryProblem, box_bp, mibi_bp


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_theory_delta_bin_value(capsys):
    code, out = run_cli(capsys, "theory", "--formula", "delta-bin",
                        "--k", "500", "--N", "500")
    assert code == 0
    assert float(out.strip()) == pytest.approx(250.0, abs=1e-6)


def test_theory_json_roundtrip(capsys):
    code, out = run_cli(capsys, "--json", "theory", "--formula", "pij",
                        "--i", "1", "--j", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula"] == "pij"
    assert payload["value"] == pytest.approx(2.0 ** -9)


_THEORY_PARAMS = dict(N=100, k=10, m=60, mu=0.3, sigma=0.4, lambda_bound=0.6,
                      eps=0.02, C=2.0)
_THEORY_FLAGS = ("--N", "100", "--k", "10", "--m", "60", "--mu", "0.3", "--sigma", "0.4",
                 "--lambda-bound", "0.6", "--eps", "0.02", "--C", "2")


@pytest.mark.parametrize("formula, flags, value", [
    ("mibi-bound", _THEORY_FLAGS, lambda: theory.mibi_sample_bound(10, 100, 0.02)),
    ("biased-bound", _THEORY_FLAGS,
     lambda: theory.biased_sample_bound(theory.TheoryParams(**_THEORY_PARAMS))),
    ("noise-bound", _THEORY_FLAGS,
     lambda: theory.noise_error_bound(theory.TheoryParams(**_THEORY_PARAMS))),
    # at m = 60 the union bound clips to 1, so cert-fail runs at m = 20,000
    ("cert-fail", ("--N", "100", "--k", "2", "--m", "20000"),
     lambda: theory.cert_failure_prob(theory.TheoryParams(N=100, k=2, m=20000))),
    ("cert-fail", ("--N", "100", "--k", "2", "--m", "20000", "--variant", "on_support"),
     lambda: theory.cert_failure_prob(theory.TheoryParams(N=100, k=2, m=20000),
                                      "on_support")),
    ("largern2", _THEORY_FLAGS, lambda: theory.largerN2_success_prob(100, 60)),
    ("largern2", (*_THEORY_FLAGS, "--variant", "rademacher"),
     lambda: theory.largerN2_success_prob(100, 60, "rademacher")),
])
def test_theory_formula_prints_the_library_value(capsys, formula, flags, value):
    code, out = run_cli(capsys, "theory", "--formula", formula, *flags)
    assert code == 0
    assert out.strip() == f"{value():.12g}"


def test_check_condition_on_stored_matrix(capsys, tmp_path):
    path = tmp_path / "A.txt"
    path.write_text("1 2\n1 -1\n")
    code, out = run_cli(capsys, "check", "--condition", "kernel-hk",
                        "--matrix", str(path), "--support", "0")
    assert code == 0
    assert "holds" in out


def test_check_strict_exit_code(capsys, tmp_path):
    path = tmp_path / "A.txt"
    path.write_text("1 2\n1 1\n")
    code, out = run_cli(capsys, "check", "--condition", "kernel-hk",
                        "--matrix", str(path), "--support", "0", "--strict")
    assert code == 1
    assert "fails" in out


def test_check_newnsp_without_alt_support_holds(capsys, tmp_path):
    # S = K, so the intersected cone is {0}
    path = tmp_path / "A.txt"
    path.write_text("2 4\n1 2 0 1\n1 1 1 1\n")
    code, out = run_cli(capsys, "check", "--condition", "newnsp",
                        "--matrix", str(path), "--support", "0,3")
    assert code == 0
    assert out.strip() == "newnsp: holds"


def test_check_newnsp_rejects_alt_support_outside_the_columns(capsys, tmp_path):
    path = tmp_path / "A.txt"
    path.write_text("2 4\n1 2 0 1\n1 1 1 1\n")
    code, _ = run_cli(capsys, "check", "--condition", "newnsp", "--matrix", str(path),
                      "--support", "0,3", "--alt-support", "0,150")
    assert code == 1


def test_check_hkplus_matches_the_library(capsys, tmp_path):
    A = gen_matrix(EnsembleConfig(kind="gaussian", m=6, N=8, seed=3))
    path = str(tmp_path / "A.txt")
    assert run_cli(capsys, "gen-matrix", "--kind", "gaussian", "--m", "6", "--N", "8",
                   "--seed", "3", "--out", path)[0] == 0
    code, out = run_cli(capsys, "--json", "check", "--condition", "hkplus",
                        "--matrix", path, "--support", "0,3")
    ref = analysis.check_hkplus_dual(A, [0, 3])
    payload = json.loads(out)
    assert code == 0 and ref.verdict == "holds"
    assert payload["verdict"] == ref.verdict
    assert payload["margin"] == ref.margin
    assert payload["witness"] == [float(v) for v in ref.witness]


@pytest.mark.parametrize("condition", ["kernel-hk", "bnsp", "hkplus"])
def test_check_rejects_alt_support_without_newnsp(capsys, tmp_path, condition):
    path = tmp_path / "A.txt"
    path.write_text("2 5\n1 2 0 1 3\n1 1 1 1 0\n")
    code = main(["check", "--condition", condition, "--matrix", str(path),
                 "--support", "1,2", "--alt-support", "3,4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "--alt-support" in captured.err


def test_gen_and_solve_matches_library(capsys, tmp_path):
    mat = str(tmp_path / "A.txt")
    sig = str(tmp_path / "x.txt")
    assert run_cli(capsys, "gen-matrix", "--kind", "gaussian", "--m", "12",
                   "--N", "16", "--seed", "5", "--out", mat)[0] == 0
    assert run_cli(capsys, "gen-signal", "--N", "16", "--k", "3", "--seed", "6",
                   "--out", sig)[0] == 0
    code, out = run_cli(capsys, "--json", "solve", "--program", "box-bp",
                        "--matrix", mat, "--signal", sig)
    assert code == 0
    payload = json.loads(out)
    A = gen_matrix(EnsembleConfig(kind="gaussian", m=12, N=16, seed=5))
    x0 = gen_sparse_binary(16, 3, seed=6)
    rep = box_bp(RecoveryProblem(A, A.entries @ x0.dense()))
    assert np.allclose(payload["x_hat"], rep.x_hat, atol=1e-12)
    assert payload["success"] is True


def test_solve_out_writes_x_hat(capsys, tmp_path):
    mat = str(tmp_path / "A.txt")
    sig = str(tmp_path / "x.txt")
    out_path = tmp_path / "x_hat.txt"
    run_cli(capsys, "gen-matrix", "--kind", "gaussian", "--m", "12", "--N", "16",
            "--seed", "5", "--out", mat)
    run_cli(capsys, "gen-signal", "--N", "16", "--k", "3", "--seed", "6", "--out", sig)
    code, out = run_cli(capsys, "--json", "solve", "--program", "box-ls",
                        "--matrix", mat, "--signal", sig, "--out", str(out_path))
    assert code == 0
    assert np.loadtxt(out_path).tolist() == json.loads(out)["x_hat"]


def test_solve_mibi_bp_reports_its_branch(capsys, tmp_path):
    # a dense signal that box_bp's plain LP misses and its mirror recovers
    A = gen_matrix(EnsembleConfig(kind="gaussian", m=8, N=12, seed=8))
    x0 = gen_sparse_binary(12, 9, seed=108)
    ref = mibi_bp(RecoveryProblem(A, A.entries @ x0.dense()))
    assert ref.branch_chosen == "mirror"
    mat = str(tmp_path / "A.txt")
    sig = str(tmp_path / "x.txt")
    run_cli(capsys, "gen-matrix", "--kind", "gaussian", "--m", "8", "--N", "12",
            "--seed", "8", "--out", mat)
    run_cli(capsys, "gen-signal", "--N", "12", "--k", "9", "--seed", "108", "--out", sig)
    argv = ("solve", "--program", "mibi-bp", "--matrix", mat, "--signal", sig)
    code, out = run_cli(capsys, *argv)
    assert code == 0 and ", branch mirror," in out
    code, out = run_cli(capsys, "--json", *argv)
    assert code == 0 and json.loads(out)["branch"] == "mirror"


def test_solve_rejects_noise_eps_with_measurements(capsys, tmp_path):
    # the noise is drawn onto A x0, which --measurements does not give
    mat = tmp_path / "A.txt"
    mat.write_text("2 3\n1 0 1\n0 1 1\n")
    meas = tmp_path / "b.txt"
    meas.write_text("1\n1\n")
    code = main(["solve", "--program", "box-bp", "--matrix", str(mat),
                 "--measurements", str(meas), "--noise-eps", "0.5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "--noise-eps" in captured.err


def test_solver_failure_exit_code(capsys, monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise SolverFailure("HiGHS: numerical trouble")

    monkeypatch.setattr(recovery, "solve", fail)
    mat = tmp_path / "A.txt"
    mat.write_text("1 2\n1 1\n")
    meas = tmp_path / "b.txt"
    meas.write_text("1\n")
    code = main(["solve", "--program", "box-bp", "--matrix", str(mat),
                 "--measurements", str(meas)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "solver failure: HiGHS: numerical trouble\n"


def test_solve_robust_bp_reports_optimal(capsys, tmp_path):
    mat = str(tmp_path / "A.txt")
    sig = str(tmp_path / "x.txt")
    assert run_cli(capsys, "gen-matrix", "--kind", "gaussian", "--m", "30",
                   "--N", "40", "--seed", "7", "--out", mat)[0] == 0
    assert run_cli(capsys, "gen-signal", "--N", "40", "--k", "4", "--seed", "8",
                   "--out", sig)[0] == 0
    code, out = run_cli(capsys, "--json", "solve", "--program", "robust-bp",
                        "--matrix", mat, "--signal", sig,
                        "--noise-eps", "0.1", "--eta", "0.1")
    assert code == 0
    assert json.loads(out)["status"] == "optimal"


def test_solve_robust_bp_reports_its_optimality_gap(capsys, tmp_path):
    mat = str(tmp_path / "A.txt")
    sig = str(tmp_path / "x.txt")
    run_cli(capsys, "gen-matrix", "--kind", "gaussian", "--m", "30", "--N", "40",
            "--seed", "7", "--out", mat)
    run_cli(capsys, "gen-signal", "--N", "40", "--k", "4", "--seed", "8", "--out", sig)
    code, out = run_cli(capsys, "--json", "solve", "--program", "robust-bp",
                        "--matrix", mat, "--signal", sig,
                        "--noise-eps", "0.1", "--eta", "0.1")
    payload = json.loads(out)
    assert code == 0
    assert 0.0 <= payload["optimality_gap"] <= 1e-6 * max(1.0, payload["objective"])
    # the LP programs prove optimality by their solver and report no gap
    code, out = run_cli(capsys, "--json", "solve", "--program", "box-bp",
                        "--matrix", mat, "--signal", sig)
    assert code == 0
    assert "optimality_gap" not in json.loads(out)


@pytest.mark.parametrize("flags", [("--noise-eps", "-0.1"), ("--noise-eps", "nan"),
                                   ("--success-tol", "0"), ("--success-tol", "inf")])
def test_phase_rejects_bad_noise_and_tolerance(capsys, flags):
    code, _ = run_cli(capsys, "phase", "--N", "20", *flags, "--dry-run")
    assert code == 1


def test_phase_rejects_a_repeated_program(capsys):
    code, _ = run_cli(capsys, "phase", "--N", "10", "--grid-step", "0.5", "--trials", "2",
                      "--programs", "box_bp,box_bp", "--dry-run")
    assert code == 1


def test_solve_rejects_a_non_finite_eta(capsys, tmp_path):
    mat = tmp_path / "A.txt"
    mat.write_text("1 2\n1 1\n")
    meas = tmp_path / "b.txt"
    meas.write_text("1\n1\n")
    code, _ = run_cli(capsys, "solve", "--program", "robust-bp", "--matrix", str(mat),
                      "--measurements", str(meas), "--eta", "nan")
    assert code == 1


def test_solve_infeasible_exit_code(capsys, tmp_path):
    mat = tmp_path / "A.txt"
    mat.write_text("1 2\n1 1\n")
    b = tmp_path / "b.txt"
    b.write_text("5.0\n")
    code, _ = run_cli(capsys, "solve", "--program", "box-bp",
                      "--matrix", str(mat), "--measurements", str(b))
    assert code == 2


def test_phase_dry_run_plan(capsys):
    code, out = run_cli(capsys, "--json", "phase", "--N", "500", "--grid-step", "0.01",
                        "--dry-run")
    assert code == 0
    plan = json.loads(out)["plan"]
    assert plan["grid"] == "100x100"
    assert plan["trials"] == 25
    assert plan["total_solves"] == 100 * 100 * 25


def test_phase_plan_keeps_every_flag_at_paper_scale(capsys):
    code, out = run_cli(capsys, "--json", "phase", "--N", "500", "--grid-step", "0.01",
                        "--programs", "box_ls,mibi_bp", "--trials", "3",
                        "--record-simultaneous", "--dry-run")
    assert code == 0
    plan = json.loads(out)["plan"]
    assert plan["programs"] == ["box_ls", "mibi_bp"]
    assert plan["trials"] == 3
    assert plan["total_solves"] == 100 * 100 * 3 * 2 * 2


@pytest.mark.parametrize("step", ["0", "2", "-0.1"])
def test_phase_rejects_a_bad_grid_step(capsys, tmp_path, step):
    csv = tmp_path / "p.csv"
    code = main(["phase", f"--grid-step={step}", "--out-csv", str(csv)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert not csv.exists()


def test_gen_matrix_rejects_a_uniform_base_with_an_infinite_range(capsys, tmp_path):
    # sqrt(3) sigma fits lambda_bound, but the range 2 sqrt(3) sigma of the
    # uniform draw overflows: an error line, not numpy's OverflowError
    out = tmp_path / "x"
    code = main(["gen-matrix", "--kind", "biased", "--base-dist", "uniform_bounded",
                 "--sigma", "5.7735e307", "--lambda-bound", "1e308", "--m", "3", "--N", "4",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "sigma" in err
    assert not out.exists()


def test_phase_rejects_a_grid_step_below_one_over_n(capsys, monkeypatch):
    # a step of 1e-9 would ask for 10^9 fractions per axis; the step is
    # refused before any grid is built, under --dry-run too
    import binrec.experiments

    def bounded_range(*args):
        r = range(*args)
        if len(r) > 1000:
            raise AssertionError(f"grid_config asked for {len(r)} grid fractions")
        return r

    monkeypatch.setattr(binrec.experiments, "range", bounded_range, raising=False)
    code = main(["phase", "--N", "100", "--grid-step", "1e-9", "--dry-run"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("flag", [["--mu", "0.3"], ["--sigma", "2"], ["--lambda-bound", "2"],
                                  ["--base-dist", "uniform_bounded"]])
def test_phase_rejects_biased_parameters_for_other_kinds(capsys, flag):
    code = main(["phase", "--kind", "gaussian", *flag, "--dry-run"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")


def test_phase_biased_defaults(capsys, monkeypatch):
    import binrec.experiments
    made = []
    grid_config = binrec.experiments.grid_config

    def recorded(*args, **kwargs):
        made.append(grid_config(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(binrec.experiments, "grid_config", recorded)
    assert run_cli(capsys, "phase", "--dry-run")[0] == 0
    assert run_cli(capsys, "phase", "--mu", "0.5", "--dry-run")[0] == 0
    assert run_cli(capsys, "phase", "--kind", "gaussian", "--dry-run")[0] == 0
    assert made[0].ensemble == EnsembleConfig(kind="biased", m=1, N=1, mu=1.0, sigma=1.0,
                                              lambda_bound=1.0, base_dist="rademacher_scaled")
    assert made[1].ensemble == EnsembleConfig(kind="biased", m=1, N=1, mu=0.5, sigma=1.0,
                                              lambda_bound=1.0, base_dist="rademacher_scaled")
    assert made[2].ensemble == EnsembleConfig(kind="gaussian", m=1, N=1)


def test_phase_small_run_writes_outputs(capsys, tmp_path):
    csv = str(tmp_path / "p.csv")
    svg = str(tmp_path / "p.svg")
    code, _ = run_cli(capsys, "phase", "--N", "16", "--grid-step", "0.5",
                      "--trials", "2", "--out-csv", csv, "--out-svg", svg)
    assert code == 0
    assert Path(csv).read_text().startswith("N,m,k,trial")
    assert "<svg" in Path(svg).read_text()


def test_certificate_reports_norm_bounds(capsys):
    code, out = run_cli(capsys, "--json", "certificate", "--m", "60", "--N", "40",
                        "--k", "5", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert {"verified", "threshold", "norm_sq",
            "norm_bound_stated", "norm_bound_proof"} <= set(payload)


def test_certificate_rejects_a_repeated_support_index(capsys):
    # --support 1,1,2 would report the |J| = 3 norm bound for J = {1, 2}
    code, out = run_cli(capsys, "--json", "certificate", "--m", "200", "--N", "20",
                        "--support", "1,1,2", "--seed", "3")
    assert code == 1 and out == ""


def test_domain_error_exit_code(capsys):
    code, _ = run_cli(capsys, "theory", "--formula", "delta-bin",
                      "--k", "20", "--N", "10")
    assert code == 1


@pytest.mark.parametrize("threads", ["abc", "-3"])
def test_invalid_thread_cap_exit_code(capsys, monkeypatch, tmp_path, threads):
    monkeypatch.setenv("BINREC_THREADS", threads)
    code = main(["phase", "--N", "16", "--grid-step", "0.5", "--trials", "1",
                 "--out-csv", str(tmp_path / "p.csv")])
    assert code == 1
    assert "BINREC_THREADS" in capsys.readouterr().err


def test_unknown_flag_exit_code(capsys):
    assert main(["theory", "--formula", "delta-bin", "--frobnicate"]) == 1


def test_readme_cli_block_runs(capsys, monkeypatch, tmp_path):
    # the first sh block under README's "## CLI": each documented command
    # runs, in order, in a scratch directory
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert len(commands) == 6 and all(argv[0] == "binrec" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _ = run_cli(capsys, *argv[1:])
        assert code == 0, argv
