import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult, lsq_linear, nnls

from binrec import recovery
from binrec.analysis import ConeSpec, check_kernel_cone
from binrec.ensembles import EnsembleConfig, gen_matrix, gen_noise, gen_sparse_binary
from binrec.experiments import desk_scale_config, sweep_trial
from binrec.optim import (LpProblem, SolverFailure, TOL_FEAS, solve_box_ls, solve_box_qp,
                          solve_lp)
from binrec.recovery import (DEFAULT_SUCCESS_TOL, MIBI_TIE_TOL, ROBUST_GAP_TOL,
                             RecoveryProblem, RecoveryReport, box_bp, box_bp_mirror, box_ls,
                             mibi_bp, _candidate, recovery_success, robust_box_bp,
                             round_to_binary, solve)
from oracles import box_qp_kkt_violations, robust_kkt_violations

BALL_TOL = 1e-9


def _random_instance(rng, m, N, k):
    A = rng.standard_normal((m, N))
    x0 = np.zeros(N)
    x0[rng.permutation(N)[:k]] = 1.0
    return A, x0


def test_box_bp_invertible_square():
    rng = np.random.default_rng(0)
    A, x0 = _random_instance(rng, 5, 5, 2)
    rep = box_bp(RecoveryProblem(A, A @ x0))
    assert rep.solver_status == "optimal"
    assert np.linalg.norm(rep.x_hat - x0) <= 1e-8


def test_box_bp_segment_nonunique():
    # A = [1 1], b = 1: the feasible set is a segment with constant l1 norm
    rep = box_bp(RecoveryProblem(np.array([[1.0, 1.0]]), np.array([1.0])))
    assert rep.solver_status == "optimal"
    assert float(np.sum(rep.x_hat)) == pytest.approx(1.0, abs=1e-9)


def test_box_bp_infeasible_status_not_exception():
    A = np.array([[1.0, 1.0]])
    rep = box_bp(RecoveryProblem(A, np.array([5.0])))  # max of Ax on box is 2
    assert rep.solver_status == "infeasible"
    assert rep.x_hat is None


def test_mibi_infeasible_problem_runs_one_lp(monkeypatch):
    # the two LPs share one feasible set, so the plain LP's verdict settles
    # the problem and the mirror LP is not solved
    calls = _counting_solve_lp(monkeypatch)
    rep = mibi_bp(RecoveryProblem(np.array([[1.0, 1.0]]), np.array([3.0])))
    assert rep.solver_status == "infeasible" and rep.x_hat is None
    assert len(calls) == 1


def test_noiseless_programs_ignore_eta():
    # eta is the instance's noise level, read by robust_box_bp alone
    rng = np.random.default_rng(4)
    A, x0 = _random_instance(rng, 4, 8, 3)
    b = A @ x0 + 0.01
    for program in (box_bp, box_bp_mirror, mibi_bp):
        plain = program(RecoveryProblem(A, b))
        noisy = program(RecoveryProblem(A, b, eta=0.1))
        assert noisy.solver_status == plain.solver_status == "optimal", program.__name__
        assert np.array_equal(noisy.x_hat, plain.x_hat), program.__name__


def test_mirror_all_ones_signal():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 8))
    rep = box_bp_mirror(RecoveryProblem(A, A @ np.ones(8)))
    assert np.allclose(rep.x_hat, 1.0, atol=1e-8)
    assert rep.objective == pytest.approx(0.0, abs=1e-8)


def test_mirror_identity_on_random_instances():
    # box_bp recovers x0 iff box_bp_mirror recovers 1-x0 from the mirrored data
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(200):
        m, N = int(rng.integers(2, 8)), int(rng.integers(3, 10))
        A, x0 = _random_instance(rng, m, N, int(rng.integers(0, N + 1)))
        plain_ok = recovery_success(box_bp(RecoveryProblem(A, A @ x0)).x_hat, x0)
        mirror_ok = recovery_success(
            box_bp_mirror(RecoveryProblem(A, A @ (1.0 - x0))).x_hat, 1.0 - x0)
        assert plain_ok == mirror_ok
        agree += 1
    assert agree == 200


def test_round_to_binary():
    assert np.array_equal(round_to_binary([0.2, 0.8]), [0, 1])
    assert np.array_equal(round_to_binary([0.5]), [1])
    assert np.array_equal(round_to_binary([0.0, 1.0]), [0, 1])
    assert np.array_equal(round_to_binary([-0.5, 1.5]), [0, 2])
    with pytest.raises(ValueError):
        round_to_binary([np.nan])


def test_mibi_ties_go_to_plain_branch():
    rng = np.random.default_rng(3)
    A, x0 = _random_instance(rng, 6, 6, 3)
    rep = mibi_bp(RecoveryProblem(A, A @ x0))
    assert rep.branch_chosen == "plain"
    assert np.linalg.norm(rep.x_hat - x0) <= 1e-8


def test_mibi_saturated_signals_use_mirror_branch():
    # k = 95 of N = 100 with only 40 Gaussian measurements: the plain branch
    # returns a fractional point while the mirror branch is exact
    successes = mirror_picked = 0
    trials = 200
    for t in range(trials):
        A = gen_matrix(EnsembleConfig(kind="gaussian", m=40, N=100, seed=10_000 + t))
        x0 = gen_sparse_binary(100, 95, seed=20_000 + t)
        rep = mibi_bp(RecoveryProblem(A, A.entries @ x0.dense()))
        if recovery_success(rep.x_hat, x0):
            successes += 1
            if rep.branch_chosen == "mirror":
                mirror_picked += 1
    assert successes >= 0.9 * trials
    assert mirror_picked >= 0.9 * successes


def test_mibi_dominates_either_branch():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m, N = int(rng.integers(2, 7)), int(rng.integers(3, 9))
        A, x0 = _random_instance(rng, m, N, int(rng.integers(0, N + 1)))
        p = RecoveryProblem(A, A @ x0)
        either = recovery_success(box_bp(p).x_hat, x0) \
            or recovery_success(box_bp_mirror(p).x_hat, x0)
        if either:
            assert recovery_success(mibi_bp(p).x_hat, x0)


def _gap(rep):
    return np.inf if rep.x_hat is None else float(np.linalg.norm(round_to_binary(rep.x_hat) - rep.x_hat))


def _eager_mibi(A, b):
    # the two-branch rule with both LPs solved, each on its own problem
    plain = box_bp(RecoveryProblem(A, b))
    mirrored = box_bp_mirror(RecoveryProblem(A, b))
    if plain.x_hat is None and mirrored.x_hat is None:
        return RecoveryReport(None, "mibi_bp", np.nan, "infeasible")
    best, branch = ((mirrored, "mirror") if _gap(mirrored) < _gap(plain) - MIBI_TIE_TOL
                    else (plain, "plain"))
    return RecoveryReport(best.x_hat, "mibi_bp", best.objective, "optimal", branch_chosen=branch)


def _mibi_instances():
    # biased desk cells k/N in {0.1, 0.2, 0.8, 0.9} at m/N in {0.3, 0.5}, as
    # run_cell draws them, and the saturated Gaussian instances of
    # test_mibi_saturated_signals_use_mirror_branch
    cfg = desk_scale_config(master_seed=1)
    for i in (0, 1, 7, 8):
        for j in (2, 4):
            for t in range(8):
                _, A, _, b = sweep_trial(cfg, i, j, t)
                yield A, b
    for t in range(8):
        A = gen_matrix(EnsembleConfig(kind="gaussian", m=40, N=100, seed=10_000 + t))
        x0 = gen_sparse_binary(100, 95, seed=20_000 + t)
        yield A, A.entries @ x0.dense()


def test_mibi_lazy_mirror_matches_both_branches():
    outcomes = set()
    for A, b in _mibi_instances():
        p = RecoveryProblem(A, b)
        rep, eager = mibi_bp(p), _eager_mibi(A, b)
        assert np.array_equal(rep.x_hat, eager.x_hat)
        assert rep.objective == eager.objective
        assert (rep.solver_status, rep.branch_chosen) == (eager.solver_status, eager.branch_chosen)
        mirror_solved = ("bp", True) in p._memo
        assert mirror_solved == (_gap(p._memo["bp", False]) > MIBI_TIE_TOL)
        outcomes.add((rep.branch_chosen, mirror_solved))
    # every way through mibi_bp is taken: a binary plain point, a fractional
    # one that the mirror beats, and a fractional one that it does not
    assert outcomes == {("plain", False), ("mirror", True), ("plain", True)}


def test_mibi_mirror_failure_matters_only_when_plain_is_fractional(monkeypatch):
    import binrec.recovery
    solve_lp = binrec.recovery.solve_lp

    def mirror_fails(lp):
        if lp.c[0] < 0:
            raise SolverFailure("iteration limit")
        return solve_lp(lp)

    monkeypatch.setattr(binrec.recovery, "solve_lp", mirror_fails)
    A, x0 = _random_instance(np.random.default_rng(3), 6, 6, 3)
    rep = mibi_bp(RecoveryProblem(A, A @ x0))
    assert rep.branch_chosen == "plain"
    assert np.linalg.norm(rep.x_hat - x0) <= 1e-8
    # x1 + x2 = 1/2: the plain vertex has a coordinate of 1/2
    with pytest.raises(SolverFailure):
        mibi_bp(RecoveryProblem(np.array([[1.0, 1.0]]), np.array([0.5])))


def test_robust_eta_zero_matches_box_bp():
    rng = np.random.default_rng(6)
    A, x0 = _random_instance(rng, 8, 12, 4)
    b = A @ x0
    exact = box_bp(RecoveryProblem(A, b))
    robust = robust_box_bp(RecoveryProblem(A, b, eta=0.0))
    assert np.linalg.norm(exact.x_hat - robust.x_hat) <= 1e-6


def test_robust_large_eta_returns_zero():
    rng = np.random.default_rng(7)
    A, x0 = _random_instance(rng, 6, 10, 3)
    b = A @ x0
    rep = robust_box_bp(RecoveryProblem(A, b, eta=float(np.linalg.norm(b)) + 1.0))
    assert np.linalg.norm(rep.x_hat) <= 1e-6


def test_robust_infeasible_ball():
    A = np.array([[1.0, 1.0]])
    rep = robust_box_bp(RecoveryProblem(A, np.array([5.0]), eta=0.5))
    assert rep.solver_status == "infeasible"


def test_robust_noisy_recovery_close():
    rng = np.random.default_rng(8)
    A = gen_matrix(EnsembleConfig(kind="biased", m=60, N=40, mu=1.0, sigma=1.0,
                                  lambda_bound=1.0, seed=99))
    x0 = gen_sparse_binary(40, 6, seed=98).dense()
    eta = 0.05
    b = A.entries @ x0 + gen_noise(60, eta, seed=97)
    rep = robust_box_bp(RecoveryProblem(A, b, eta=eta))
    assert rep.solver_status == "optimal"
    assert np.linalg.norm(A.entries @ rep.x_hat - b) <= eta + BALL_TOL
    assert np.all((rep.x_hat >= 0.0) & (rep.x_hat <= 1.0))
    assert np.linalg.norm(rep.x_hat - x0) <= 0.2


def _noisy_robust_instance(cell, trial, N=100, eps=0.1):
    """An instance of the benchmark's noisy-robust cells (k/N, m/N), on
    seeds apart from the benchmark's."""
    kf, mf = [(0.1, 0.5), (0.1, 0.8), (0.2, 0.8), (0.8, 0.9)][cell]
    k, m = round(kf * N), round(mf * N)
    s = 3 * (900_000 + 10 * cell + trial)
    A = gen_matrix(EnsembleConfig(kind="biased", m=m, N=N, mu=1.0, sigma=1.0,
                                  lambda_bound=1.0, seed=s)).entries
    x0 = gen_sparse_binary(N, k, seed=s + 1).dense()
    return A, A @ x0 + gen_noise(m, eps, seed=s + 2)


@pytest.mark.parametrize("cell", range(4))
def test_robust_point_meets_kkt(cell):
    eta = 0.1
    for trial in range(2):
        A, b = _noisy_robust_instance(cell, trial, eps=eta)
        rep = robust_box_bp(RecoveryProblem(A, b, eta=eta))
        assert rep.solver_status == "optimal"
        v = robust_kkt_violations(A, b, eta, rep.x_hat)
        assert v["ball"] <= BALL_TOL and v["box"] == 0.0, v
        assert max(v["multiplier"], v["stationarity"], v["sign"], v["slackness"]) <= 1e-5, v
        # free coordinates make stationarity bind: 1 + mu A^T r = 0 there
        # needs mu > 0, so the ball is active
        assert np.sum((rep.x_hat > 1e-9) & (rep.x_hat < 1 - 1e-9)) >= 1
    # the oracle rejects a feasible point that is not optimal: box-LS's own
    ls = box_ls(RecoveryProblem(A, b)).x_hat
    assert max(robust_kkt_violations(A, b, eta, ls).values()) > 1e-2


def test_robust_kkt_oracle_accepts_the_inactive_ball():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    b = np.array([0.05, 0.0])
    assert max(robust_kkt_violations(A, b, 0.1, np.zeros(2)).values()) == 0.0
    rep = robust_box_bp(RecoveryProblem(A, b, eta=0.1))
    assert rep.solver_status == "optimal"
    assert np.max(rep.x_hat) <= 1e-9
    assert max(robust_kkt_violations(A, b, 0.1, rep.x_hat).values()) == 0.0


def _tiny_robust_instance(seed):
    """(A, b, eta) with m <= 6, N <= 8 and noise of norm at most eta."""
    rng = np.random.default_rng(seed)
    m, N = int(rng.integers(1, 7)), int(rng.integers(2, 9))
    A, x0 = _random_instance(rng, m, N, int(rng.integers(0, N + 1)))
    eta = float(rng.uniform(0.01, 1.0))
    noise = rng.standard_normal(m)
    b = A @ x0 + rng.uniform(0.0, 1.0) * eta * noise / max(np.linalg.norm(noise), 1e-12)
    return A, b, eta


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_optimal_robust_points_meet_box_and_ball(seed):
    A, b, eta = _tiny_robust_instance(seed)
    rep = robust_box_bp(RecoveryProblem(A, b, eta=eta))
    assert rep.solver_status in ("optimal", "max_iter", "stalled")
    if rep.solver_status == "optimal":
        assert np.all((rep.x_hat >= 0.0) & (rep.x_hat <= 1.0))
        assert np.linalg.norm(A @ rep.x_hat - b) <= eta + BALL_TOL


def test_robust_points_are_proven_optimal_on_the_first_500_seeds():
    # the tiny generator's first 500 seeds: every point is proven optimal
    # by its own gap, lies in the ball and meets the KKT oracle
    for seed in range(500):
        A, b, eta = _tiny_robust_instance(seed)
        rep = robust_box_bp(RecoveryProblem(A, b, eta=eta))
        assert rep.solver_status == "optimal", seed
        assert rep.optimality_gap <= ROBUST_GAP_TOL * max(1.0, rep.objective), seed
        assert np.linalg.norm(A @ rep.x_hat - b) <= eta, seed
        v = robust_kkt_violations(A, b, eta, rep.x_hat)
        assert max(v.values()) <= 1e-6, (seed, v)


@pytest.mark.parametrize("shape", [(8, 5), (5, 8)])
def test_robust_eta_at_the_box_ls_residual(shape):
    # b lies outside A[0,1]^N, so the ball meets the box in a sliver or not
    # at all.  A residual r(0) up to 1e-7 above eta counts as feasible: no
    # bracket to search then exists, and the lam = 0 point comes back stalled.
    rng = np.random.default_rng(0)
    A = rng.standard_normal(shape)
    b = A @ rng.uniform(-0.5, 1.5, shape[1]) + 0.3 * rng.standard_normal(shape[0])
    ls = solve_box_ls(A, b).residual_norm
    assert ls > 0.1
    assert robust_box_bp(RecoveryProblem(A, b, eta=ls - 1e-6)).solver_status == "infeasible"
    for d in (-5e-8, -1e-9, 0.0, 1e-12, 1e-9, 1e-8, 1e-7):
        eta = ls + d
        rep = robust_box_bp(RecoveryProblem(A, b, eta=eta))
        r = np.linalg.norm(A @ rep.x_hat - b)
        assert rep.solver_status in ("optimal", "stalled"), d
        assert r <= eta or (rep.solver_status == "stalled" and r <= eta + 1e-7), d
        # once eta clears the lam = 0 solve's own error, the search runs and
        # returns a point in the ball
        if d >= 1e-9:
            assert r <= eta, d


@pytest.mark.parametrize("shape", [(8, 5), (5, 8)])
def test_robust_eta_just_above_the_box_ls_residual_is_proven(shape):
    # the ball barely reaches the box, so the multiplier is near 0 and the
    # Everett bound divides the inner solve's error by it; the piece step's
    # point solves its free block exactly, so the bound still proves it
    rng = np.random.default_rng(0)
    A = rng.standard_normal(shape)
    b = A @ rng.uniform(-0.5, 1.5, shape[1]) + 0.3 * rng.standard_normal(shape[0])
    ls = solve_box_ls(A, b).residual_norm
    for d in (1e-8, 1e-7, 1e-6):
        rep = robust_box_bp(RecoveryProblem(A, b, eta=ls + d))
        assert rep.solver_status == "optimal", d
        assert np.linalg.norm(A @ rep.x_hat - b) <= ls + d, d


def test_robust_infeasible_only_with_a_proof(monkeypatch):
    # desk-sweep trial k=30, m=40 (master seed 8), noiseless, so x0 lies in
    # the ball.  The lam = 0 solve stops at L-BFGS-B's cap of 50 N
    # iterations at a residual of 5.3e-4, above eta = 1e-4, but box-LS's
    # weak duality does not prove the ball out of reach, so the search runs
    _, A, x0, b = sweep_trial(desk_scale_config(8), 2, 3, 6)
    A = A.entries
    first = solve_box_qp(A, b)
    assert first.status == "max_iter" and first.residual_norm > 1e-4 + 1e-7
    rep = robust_box_bp(RecoveryProblem(A, b, eta=1e-4))
    assert rep.solver_status == "optimal"
    assert np.linalg.norm(A @ rep.x_hat - b) <= 1e-4
    assert rep.objective <= x0.k
    # with no probe, no point in the ball is known: max_iter without a point
    monkeypatch.setattr(recovery, "_MAX_PROBES", 0)
    rep = robust_box_bp(RecoveryProblem(A, b, eta=1e-4))
    assert rep.solver_status == "max_iter" and rep.x_hat is None


def test_robust_probe_cap_gives_max_iter(monkeypatch):
    monkeypatch.setattr(recovery, "_MAX_PROBES", 1)
    A, b = _noisy_robust_instance(0, 0)
    rep = robust_box_bp(RecoveryProblem(A, b, eta=0.1))
    assert rep.solver_status == "max_iter"
    # still the feasible end of the bracket, with its (too large) gap
    assert np.linalg.norm(A @ rep.x_hat - b) <= 0.1
    assert rep.optimality_gap > ROBUST_GAP_TOL * max(1.0, rep.objective)


def test_robust_box_bp_takes_a_few_box_qp_solves(monkeypatch):
    # each piece step lands on the root of its piece, so a handful of
    # solve_box_qp calls settle a program, the lam = 0 one included
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_box_qp(*args, **kwargs)

    monkeypatch.setattr(recovery, "solve_box_qp", counted)
    for cell in range(4):
        for trial in range(10):
            A, b = _noisy_robust_instance(cell, trial)
            calls.clear()
            rep = robust_box_bp(RecoveryProblem(A, b, eta=0.1))
            assert rep.solver_status == "optimal", (cell, trial)
            assert len(calls) <= 6, (cell, trial, len(calls))


def test_robust_box_bp_runs_no_gram_eigendecomposition(monkeypatch):
    # robust_box_bp reads its box-QP solves' points and residuals only, so
    # the fixed-point verdict and its eigvalsh never run; reading it does
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for cell in range(4):
        for trial in range(3):
            A, b = _noisy_robust_instance(cell, trial)
            assert robust_box_bp(RecoveryProblem(A, b, eta=0.1)).solver_status == "optimal"
    assert not calls
    res = solve_box_qp(A, b)
    assert not calls
    assert res.status in ("converged", "max_iter", "stalled")
    assert len(calls) == 1


def test_box_ls_wrapper():
    rng = np.random.default_rng(9)
    A, x0 = _random_instance(rng, 20, 15, 5)
    rep = box_ls(RecoveryProblem(A, A @ x0))
    assert rep.solver_status == "converged"
    assert np.linalg.norm(rep.x_hat - x0) <= 1e-6


def _desk_sweep_config(master_seed, kind="biased"):
    # the desk preset on the benchmark's desk-sweep sub-grid
    return dataclasses.replace(desk_scale_config(master_seed, kind),
                               k_fractions=[0.1, 0.2, 0.8, 0.9], m_fractions=[0.3, 0.4, 0.5])


def _bvls_with_vertex_rule(A, b):
    """``solve_box_ls``'s answer after box_ls's vertex rule, decided by a
    kernel-cone check of its own: a vertex within TOL_FEAS of BVLS's point
    comes back when the check holds, half a unit along its witness when it
    fails, and BVLS's point when it gives no verdict."""
    res = solve_box_ls(A, b)
    v = np.round(res.x)
    if np.max(np.abs(res.x - v)) > TOL_FEAS:
        return res
    try:
        cone = check_kernel_cone(A, ConeSpec.sign_cone(v.size, np.flatnonzero(v)))
    except SolverFailure:
        return res
    x = v if cone.holds else v + cone.witness / (2.0 * np.max(np.abs(cone.witness)))
    return dataclasses.replace(res, x=x, residual_norm=float(np.linalg.norm(A @ x - b)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_box_ls_returns_a_vertex_only_when_it_is_the_unique_minimizer(seed):
    # on wide, square and tall Gaussian or degenerate {0, 2} matrices, with
    # b = A x0 for binary x0, noisy or not
    rng = np.random.default_rng(seed)
    m, N = int(rng.integers(1, 10)), int(rng.integers(1, 13))
    A = rng.standard_normal((m, N)) if rng.random() < 0.5 else 2.0 * rng.integers(0, 2, (m, N))
    x0 = rng.integers(0, 2, N).astype(float)
    b = A @ x0 + (0.1 * rng.standard_normal(m) if rng.random() < 0.3 else 0.0)
    x = box_ls(RecoveryProblem(A, b)).x_hat
    assert np.all((x >= 0) & (x <= 1))
    v = np.round(x)
    if np.max(np.abs(x - v)) <= TOL_FEAS:
        assert check_kernel_cone(A, ConeSpec.sign_cone(N, np.flatnonzero(v))).holds


def test_each_kernel_cone_is_decided_once_per_problem(monkeypatch):
    # desk-sweep trial k=10, m=30 (Gaussian, master seed 1): box-BP's
    # certification, box_ls's shortcut and its vertex rule all ask about
    # the cone of one vertex, and one Gordan solve answers them all
    import binrec.analysis
    gordan = binrec.analysis._gordan
    cones = []

    def counted(A, cone):
        cones.append((cone.signs.tobytes(), cone.sum_nonpos))
        return gordan(A, cone)

    monkeypatch.setattr(binrec.analysis, "_gordan", counted)
    _, A, _, b = sweep_trial(_desk_sweep_config(1, "gaussian"), 0, 0, 4)
    p = RecoveryProblem(A, b)
    for program in (box_bp, mibi_bp, box_ls):
        program(p)
    assert cones and len(cones) == len(set(cones)), cones


def test_box_ls_keeps_its_own_minimizer_when_the_feasible_set_is_wide():
    # desk-sweep trials k=10, m=30 (master seeds 1 and 12) and k=80, m=40
    # (master seed 21), where {x in box: Ax = Ax0} reaches about 10 from x0
    # in l1 and raw BVLS lands on the vertex x0.  Returning it would claim a
    # recovery that the program does not determine; the kernel-cone check
    # fails there, and its witness moves the point half a unit off x0.
    for seed, cell, t in ((1, (0, 0), 2), (12, (0, 0), 5), (21, (2, 1), 0)):
        _, A, x0, b = sweep_trial(_desk_sweep_config(seed), *cell, t)
        raw = lsq_linear(A.entries, b, bounds=(0.0, 1.0), method="bvls").x
        assert np.max(np.abs(raw - x0.dense())) <= 1e-9, seed
        rep = box_ls(RecoveryProblem(A, b))
        assert rep.solver_status == "converged", seed
        assert rep.objective <= 1e-8, seed
        assert np.all((rep.x_hat >= 0) & (rep.x_hat <= 1)), seed
        assert np.linalg.norm(rep.x_hat - x0.dense()) >= 0.5, seed


def test_box_ls_stalled_short_of_its_cap_is_not_max_iter(monkeypatch):
    # BVLS at a KKT tolerance of 1 stops on its own, well inside its
    # iteration cap and short of the fixed point; b lies far outside A's
    # image of the box, so that most bounds are active
    import binrec.optim

    def loose(*args, **kwargs):
        return lsq_linear(*args, **{**kwargs, "tol": 1.0})

    rng = np.random.default_rng(8)
    A = rng.standard_normal((30, 80))
    b = 3.0 * rng.standard_normal(30)
    monkeypatch.setattr(binrec.optim, "lsq_linear", loose)
    rep = box_ls(RecoveryProblem(A, b, eta=0.1))
    assert rep.solver_status == "stalled"
    monkeypatch.undo()
    assert box_ls(RecoveryProblem(A, b, eta=0.1)).solver_status == "converged"


def _counting_solve_box_ls(monkeypatch):
    import binrec.recovery
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_box_ls(*args, **kwargs)

    monkeypatch.setattr(binrec.recovery, "solve_box_ls", counted)
    return calls


def test_box_ls_shortcut_matches_the_solver(monkeypatch):
    # every trial of the desk-sweep sub-grid at master seed 1: box_ls, with
    # or without the certified shortcut, agrees with BVLS and its vertex
    # rule; BVLS lands on a vertex at k=10, m=30, trial 2
    calls = _counting_solve_box_ls(monkeypatch)
    cfg = _desk_sweep_config(1)
    trials = 0
    for i in range(len(cfg.k_fractions)):
        for j in range(len(cfg.m_fractions)):
            for t in range(cfg.trials):
                _, A, _, b = sweep_trial(cfg, i, j, t)
                rep = box_ls(RecoveryProblem(A, b))
                ref = _bvls_with_vertex_rule(A.entries, b)
                assert rep.solver_status == ref.status
                assert np.linalg.norm(rep.x_hat - ref.x) <= 1e-9
                trials += 1
    # the shortcut is taken: the solver ran on fewer trials than there are
    assert len(calls) < trials


@pytest.mark.parametrize("cell", [(0, 2), (2, 1)])
def test_box_ls_noisy_wide_trial_runs_the_solver(monkeypatch, cell):
    # noise of norm 0.1 on a wide trial: box-BP's LP is infeasible at
    # k=10, m=50 and feasible at k=80, m=40, and neither certifies its
    # rounding, so box_ls returns the solver's point
    calls = _counting_solve_box_ls(monkeypatch)
    cfg = dataclasses.replace(_desk_sweep_config(1), noise_eps=0.1)
    _, A, _, b = sweep_trial(cfg, *cell, 0)
    rep = box_ls(RecoveryProblem(A, b))
    ref = _bvls_with_vertex_rule(A.entries, b)
    assert len(calls) == 1
    assert rep.solver_status == ref.status
    assert np.array_equal(rep.x_hat, ref.x)
    # told the noise level, box_ls skips the shortcut and box-BP's LP
    p = RecoveryProblem(A, b, eta=cfg.noise_eps)
    rep = box_ls(p)
    assert len(calls) == 2 and not any(key[0] == "bp" for key in p._memo)
    assert rep.solver_status == ref.status
    assert np.array_equal(rep.x_hat, ref.x)


def test_box_ls_runs_the_solver_when_the_lp_fails(monkeypatch):
    # an LP without a verdict certifies nothing; box_ls must not fail on it.
    # Desk-sweep trial k=20, m=30 (master seed 1): neither NNLS candidate
    # fits b, so box-BP's certification cannot settle it and the LP runs.
    import binrec.recovery
    lp_calls = []

    def no_verdict(lp):
        lp_calls.append(lp)
        raise SolverFailure("iteration limit")

    monkeypatch.setattr(binrec.recovery, "solve_lp", no_verdict)
    calls = _counting_solve_box_ls(monkeypatch)
    _, A, _, b = sweep_trial(_desk_sweep_config(1), 1, 0, 0)
    rep = box_ls(RecoveryProblem(A, b))
    assert len(lp_calls) == 1
    assert len(calls) == 1
    assert np.array_equal(rep.x_hat, _bvls_with_vertex_rule(A.entries, b).x)


def _no_cone_verdict(monkeypatch):
    """Both solves behind a kernel-cone check stop at their iteration limit:
    NNLS raises it, and BVLS returns the origin, which verifies nothing."""
    import binrec.analysis

    def no_nnls(B, e, *, maxiter):
        raise RuntimeError("Maximum number of iterations reached.")

    def no_bvls(B, e, **kwargs):
        return OptimizeResult(x=np.zeros(B.shape[1]), status=0)

    monkeypatch.setattr(binrec.analysis, "nnls", no_nnls)
    monkeypatch.setattr(binrec.analysis, "lsq_linear", no_bvls)


def test_box_ls_runs_the_solver_when_the_cone_check_fails(monkeypatch):
    # a kernel-cone check without a verdict certifies nothing either, and
    # box_ls's vertex rule then returns BVLS's point as it is
    calls = _counting_solve_box_ls(monkeypatch)
    _, A, x0, b = sweep_trial(_desk_sweep_config(1), 0, 2, 0)
    assert box_ls(RecoveryProblem(A, b)).solver_status == "converged" and not calls
    _no_cone_verdict(monkeypatch)
    with pytest.raises(SolverFailure):
        check_kernel_cone(A, ConeSpec.sign_cone(A.N, x0.support))
    rep = box_ls(RecoveryProblem(A, b))
    assert len(calls) == 1
    assert np.array_equal(rep.x_hat, _bvls_with_vertex_rule(A.entries, b).x)


def test_box_ls_shortcut_declines_a_binary_point_without_the_cone():
    # desk-sweep trial k=10, m=30 (master seed 12): box-BP's point is x0
    # and fits b, but ker(A) meets its cone, so x0 is not the only minimizer
    # and the shortcut must not return it
    _, A, x0, b = sweep_trial(_desk_sweep_config(12), 0, 0, 5)
    x = round_to_binary(box_bp(RecoveryProblem(A, b)).x_hat)
    assert np.array_equal(x, x0.dense())
    assert np.array_equal(A.entries @ x, b)
    assert not check_kernel_cone(A, ConeSpec.sign_cone(A.N, x0.support)).holds


def test_box_ls_shortcut_declines_a_point_that_does_not_fit(monkeypatch):
    # x1 + x2 = 0.4: box-BP's vertex rounds to 0, whose cone (the
    # nonnegative orthant) meets ker(A) trivially, but A0 != b, so the
    # solver answers
    calls = _counting_solve_box_ls(monkeypatch)
    A, b = np.array([[1.0, 1.0]]), np.array([0.4])
    p = RecoveryProblem(A, b)
    assert np.array_equal(round_to_binary(box_bp(p).x_hat), [0, 0])
    assert check_kernel_cone(A, ConeSpec.sign_cone(2, [])).holds
    rep = box_ls(p)
    assert len(calls) == 1
    assert np.array_equal(rep.x_hat, _bvls_with_vertex_rule(A, b).x)
    assert rep.objective <= 1e-9


class _SolverRan(Exception):
    pass


def test_box_ls_shortcut_points_are_kkt_points_and_the_signal(monkeypatch):
    # every point the shortcut returns on the biased and Gaussian desk-sweep
    # sub-grids, master seeds 1-5, 8 trials a cell, meets the box-LS KKT
    # conditions and is the signal itself.  Only the shortcut's points are
    # checked, so the solver is stubbed out.
    import binrec.recovery

    def solver(*args, **kwargs):
        raise _SolverRan

    monkeypatch.setattr(binrec.recovery, "solve_box_ls", solver)
    shortcuts = 0
    for kind, seed in itertools.product(("biased", "gaussian"), range(1, 6)):
        cfg = dataclasses.replace(_desk_sweep_config(seed, kind), trials=8)
        for i, j, t in itertools.product(range(len(cfg.k_fractions)),
                                         range(len(cfg.m_fractions)), range(cfg.trials)):
            _, A, x0, b = sweep_trial(cfg, i, j, t)
            try:
                rep = box_ls(RecoveryProblem(A, b))
            except _SolverRan:
                continue
            shortcuts += 1
            assert rep.solver_status == "converged"
            violations = box_qp_kkt_violations(A.entries, b, 0.0, 1.0, rep.x_hat)
            assert max(violations.values()) <= 1e-8, (kind, seed, i, j, t)
            assert np.array_equal(rep.x_hat, x0.dense())
    assert shortcuts > 0


def _counting_solve_lp(monkeypatch):
    import binrec.recovery
    calls = []

    def counted(lp):
        calls.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(binrec.recovery, "solve_lp", counted)
    return calls


def _certification_instances():
    # Gaussian, {0, 1} and biased {0, 2} matrices, wide, square and tall,
    # with K empty, full and in between
    rng = np.random.default_rng(2020)
    N = 10
    for kind in ("gaussian", "zero_one", "biased"):
        for m in (4, 7, 10, 14):
            for k in (0, 1, 3, 5, 8, 9, N):
                for _ in range(3):
                    if kind == "gaussian":
                        A = rng.standard_normal((m, N))
                    else:
                        A = rng.integers(0, 2, (m, N)) * (2.0 if kind == "biased" else 1.0)
                    x0 = np.zeros(N)
                    x0[rng.permutation(N)[:k]] = 1.0
                    yield kind, A, x0


def test_certified_points_are_the_lps_optimum(monkeypatch):
    # a box-BP report settled without HiGHS is exactly binary and is the
    # LP's optimum; a candidate that fits b but is not certified falls
    # through to HiGHS
    calls = _counting_solve_lp(monkeypatch)
    seen = {}
    for kind, A, x0 in _certification_instances():
        b = A @ x0
        for mirror, program in ((False, box_bp), (True, box_bp_mirror)):
            p = RecoveryProblem(A, b)
            calls.clear()
            rep = program(p)
            if calls:
                fits = any(_candidate(p, saturated) is not None for saturated in (False, True))
                seen[kind, mirror, "lp", fits] = seen.get((kind, mirror, "lp", fits), 0) + 1
                continue
            seen[kind, mirror, "certified"] = seen.get((kind, mirror, "certified"), 0) + 1
            assert rep.solver_status == "optimal"
            assert np.all((rep.x_hat == 0.0) | (rep.x_hat == 1.0))
            c = -np.ones(A.shape[1]) if mirror else np.ones(A.shape[1])
            ref = solve_lp(LpProblem(c=c, A_eq=A, b_eq=b, lower=np.zeros(A.shape[1]),
                                     upper=np.ones(A.shape[1])))
            assert np.max(np.abs(rep.x_hat - ref.x)) <= 1e-9, (kind, mirror)
            assert rep.objective == pytest.approx(ref.objective + (A.shape[1] if mirror else 0.0),
                                                  abs=1e-9)
    for kind in ("gaussian", "zero_one", "biased"):
        for mirror in (False, True):
            assert seen.get((kind, mirror, "certified"), 0) > 0, (kind, mirror)
            assert seen.get((kind, mirror, "lp", False), 0) > 0, (kind, mirror)
    assert sum(n for key, n in seen.items() if key[2:] == ("lp", True)) > 0


def test_a_fitting_candidate_without_a_certificate_runs_the_lp(monkeypatch):
    # x1 + x2 = 1: NNLS gives (1, 0), which fits b, but the whole segment
    # is optimal, so no cone check holds and HiGHS answers
    calls = _counting_solve_lp(monkeypatch)
    A, b = np.array([[1.0, 1.0]]), np.array([1.0])
    p = RecoveryProblem(A, b)
    rep = box_bp(p)
    assert np.array_equal(_candidate(p, saturated=False), [1.0, 0.0])
    assert len(calls) == 1
    assert rep.solver_status == "optimal"
    assert float(np.sum(rep.x_hat)) == pytest.approx(1.0, abs=1e-9)


def test_certification_clips_nnls_output_to_the_box(monkeypatch):
    # nnls(A, b) is (2, 0): rounded unclipped it would fit b from outside
    # the box.  Clipped it does not fit, and the saturated candidate (1, 1)
    # is the only point of the box with Ax = b.
    A, b = np.array([[1.0, 1.0]]), np.array([2.0])
    assert np.max(nnls(A, b)[0]) > 1.0
    calls = _counting_solve_lp(monkeypatch)
    for program in (box_bp, box_bp_mirror, mibi_bp):
        assert np.array_equal(program(RecoveryProblem(A, b)).x_hat, [1.0, 1.0])
    assert not calls


@pytest.mark.parametrize("module", ["recovery", "analysis"])
def test_certification_without_a_verdict_runs_the_lp(monkeypatch, module):
    # an NNLS solve that stops at its iteration cap, for the candidates
    # (recovery), or a kernel-cone check whose NNLS and BVLS solves both
    # stop without a verdict (analysis, a SolverFailure), certifies nothing
    import binrec.recovery

    def no_verdict(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    A, x0 = _random_instance(np.random.default_rng(3), 6, 6, 3)
    calls = _counting_solve_lp(monkeypatch)
    box_bp(RecoveryProblem(A, A @ x0))
    assert not calls
    if module == "recovery":
        monkeypatch.setattr(binrec.recovery, "nnls", no_verdict)
    else:
        _no_cone_verdict(monkeypatch)
    for program in (box_bp, box_bp_mirror):
        rep = program(RecoveryProblem(A, A @ x0))
        assert rep.solver_status == "optimal"
        assert np.linalg.norm(rep.x_hat - x0) <= 1e-8
    assert len(calls) == 2


def test_noisy_problems_take_no_certification(monkeypatch):
    # no NNLS candidate and no LP beyond the two programs' own; box_ls's
    # vertex rule may run one kernel-cone check, since BVLS ends on a
    # vertex of this 6 x 6 instance
    import binrec.recovery

    def never(*args, **kwargs):
        raise AssertionError("NNLS ran on a noisy problem")

    monkeypatch.setattr(binrec.recovery, "nnls", never)
    calls = _counting_solve_lp(monkeypatch)
    A, x0 = _random_instance(np.random.default_rng(3), 6, 6, 3)
    p = RecoveryProblem(A, A @ x0, eta=0.1)
    for program in (box_bp, box_bp_mirror, mibi_bp, box_ls):
        program(p)
    assert len(calls) == 2


def test_box_ls_reuses_the_certified_verdict(monkeypatch):
    # box-BP's certification proved its point the only one of the box with
    # Ax = b; box_ls returns it without another kernel-cone check
    import binrec.analysis
    nnls_calls = []

    def counted(*args, **kwargs):
        nnls_calls.append(args)
        return nnls(*args, **kwargs)

    monkeypatch.setattr(binrec.analysis, "nnls", counted)
    calls = _counting_solve_box_ls(monkeypatch)
    _, A, x0, b = sweep_trial(_desk_sweep_config(1), 0, 2, 0)
    p = RecoveryProblem(A, b)
    assert np.array_equal(box_bp(p).x_hat, x0.dense())
    checks = len(nnls_calls)
    rep = box_ls(p)
    assert rep.solver_status == "converged" and np.array_equal(rep.x_hat, x0.dense())
    assert len(nnls_calls) == checks and not calls


def test_recovery_success_criterion():
    x0 = gen_sparse_binary(10, 4, seed=0)
    assert recovery_success(x0.dense(), x0)
    assert not recovery_success(1.0 - x0.dense(), x0)
    nudged = x0.dense()
    nudged[0] += 1e-6
    assert recovery_success(nudged, x0, tol=1e-4)
    assert not recovery_success(None, x0)
    with pytest.raises(ValueError):
        recovery_success(np.zeros(9), x0)
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            recovery_success(None, x0, tol=tol)


def test_solve_dispatch():
    rng = np.random.default_rng(10)
    A, x0 = _random_instance(rng, 5, 5, 2)
    p = RecoveryProblem(A, A @ x0)
    rep = solve("box_bp", p)
    assert rep.program == "box_bp"
    with pytest.raises(ValueError):
        solve("omp", p)


def test_problem_validation():
    with pytest.raises(ValueError):
        RecoveryProblem(np.eye(3), np.zeros(2))
    for eta in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            RecoveryProblem(np.eye(3), np.zeros(3), eta=eta)
    with pytest.raises(ValueError):
        RecoveryProblem(np.eye(2), np.array([0.0, np.nan]))


def test_problem_keeps_a_scalar_b_as_a_vector():
    # a one-row measurement file loads as a 0-d array
    p = RecoveryProblem(np.array([[1.0, 2.0]]), np.array(3.0))
    assert p.b.shape == (1,)
    for program in (box_bp, box_bp_mirror, box_ls):
        rep = program(p)
        assert rep.solver_status in ("optimal", "converged")
        assert np.allclose(rep.x_hat, [1.0, 1.0], atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_returned_points_always_in_box(seed):
    rng = np.random.default_rng(seed)
    m, N = int(rng.integers(1, 7)), int(rng.integers(2, 9))
    A, x0 = _random_instance(rng, m, N, int(rng.integers(0, N + 1)))
    p = RecoveryProblem(A, A @ x0)
    for program in ("box_bp", "box_bp_mirror", "mibi_bp", "box_ls"):
        rep = solve(program, p)
        if rep.x_hat is not None:
            assert np.all(rep.x_hat >= -1e-9)
            assert np.all(rep.x_hat <= 1 + 1e-9)
            if program != "box_ls":
                assert np.linalg.norm(A @ rep.x_hat - p.b) <= 1e-7 * max(1.0, np.linalg.norm(p.b))
