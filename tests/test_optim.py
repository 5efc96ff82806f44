import ast
import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import lsq_linear

from binrec import optim
from binrec.analysis import ConeSpec, check_kernel_cone
from binrec.ensembles import EnsembleConfig, gen_matrix, gen_sparse_binary
from binrec.optim import (LpProblem, SolverFailure, TOL_BOX_LS, TOL_FEAS, lp_feasible,
                          solve_box_ls, solve_box_qp, solve_lp)

from oracles import (box_qp_kkt_violations, enumerate_lp_optimum, lp_kkt_violations,
                     random_bounded_lp)


def test_min_single_variable_on_unit_interval():
    sol = solve_lp(LpProblem(c=[1.0], lower=[0.0], upper=[1.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(0.0, abs=1e-12)
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_forced_objective_on_simplex_face():
    # min x1+x2 s.t. x1+x2 = 1 on the unit box: every feasible point is optimal
    sol = solve_lp(LpProblem(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                             lower=[0.0, 0.0], upper=[1.0, 1.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_unbounded_detection():
    sol = solve_lp(LpProblem(c=[-1.0], lower=[0.0], upper=[np.inf]))
    assert sol.status == "unbounded"


def test_infeasible_interval():
    feasible, _ = lp_feasible(LpProblem(c=[0.0], A_ineq=[[1.0], [-1.0]],
                                        b_ineq=[-1.0, -1.0]))
    assert not feasible


def test_feasible_interval_witness():
    feasible, w = lp_feasible(LpProblem(c=[0.0], A_ineq=[[-1.0], [1.0]],
                                        b_ineq=[-1.0, 2.0]))
    assert feasible
    assert 1.0 - TOL_FEAS <= w[0] <= 2.0 + TOL_FEAS


def test_hkplus_system_by_hand():
    # A = [1 -1], K = {0}: A^T v = (v, -v) needs v <= -1 under the unit margin
    feasible, v = lp_feasible(LpProblem(c=[0.0], A_ineq=[[1.0], [-(-1.0)]],
                                        b_ineq=[-1.0, -1.0]))
    assert feasible and v[0] < 0


def test_oracle_equivalence_500_instances():
    rng = np.random.default_rng(20240811)
    mismatches = []
    for trial in range(500):
        c, A, b, lower, upper = random_bounded_lp(rng)
        status, obj = enumerate_lp_optimum(c, A, b, lower, upper)
        sol = solve_lp(LpProblem(c=c, A_eq=A if A.size else None,
                                 b_eq=b if A.size else None,
                                 lower=lower, upper=upper))
        if sol.status != status:
            mismatches.append((trial, status, sol.status))
        elif status == "optimal" and abs(sol.objective - obj) > 1e-7 * max(1.0, abs(obj)):
            mismatches.append((trial, obj, sol.objective))
    assert not mismatches, mismatches[:5]


def test_optimal_point_is_feasible():
    rng = np.random.default_rng(7)
    for _ in range(100):
        c, A, b, lower, upper = random_bounded_lp(rng)
        sol = solve_lp(LpProblem(c=c, A_eq=A if A.size else None,
                                 b_eq=b if A.size else None,
                                 lower=lower, upper=upper))
        if sol.status != "optimal":
            continue
        scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
        assert np.all(sol.x >= lower - 1e-8)
        assert np.all(sol.x <= upper + 1e-8)
        if A.size:
            assert np.linalg.norm(A @ sol.x - b) <= 1e-7 * scale


def test_weak_duality_at_optimum():
    # Lagrangian dual value at the reported multipliers:
    # g(y) = y.b + sum_i min(r_i l_i, r_i u_i) with r = c - A^T y.
    # Strong duality makes it equal the primal objective at the optimum.
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(200):
        c, A, b, lower, upper = random_bounded_lp(rng)
        if not A.size:
            continue
        sol = solve_lp(LpProblem(c=c, A_eq=A, b_eq=b, lower=lower, upper=upper))
        if sol.status != "optimal":
            continue
        r = c - A.T @ sol.dual_eq
        g = float(sol.dual_eq @ b) + float(np.sum(np.minimum(r * lower, r * upper)))
        assert abs(sol.objective - g) <= 1e-6 * (1.0 + abs(sol.objective))
        checked += 1
    assert checked >= 50


def test_lp_determinism():
    rng = np.random.default_rng(99)
    c, A, b, lower, upper = random_bounded_lp(rng)
    p1 = LpProblem(c=c, A_eq=A, b_eq=b, lower=lower, upper=upper)
    p2 = LpProblem(c=c.copy(), A_eq=A.copy(), b_eq=b.copy(),
                   lower=lower.copy(), upper=upper.copy())
    s1, s2 = solve_lp(p1), solve_lp(p2)
    assert s1.status == s2.status
    if s1.status == "optimal":
        assert np.array_equal(s1.x, s2.x)


def test_degenerate_bernoulli_bp_does_not_cycle():
    # fully degenerate at k=0: b=0 and x=0 is optimal, yet phase 1 starts at
    # a vertex with many zero basics; must not hit the iteration limit
    rng = np.random.default_rng(5)
    A = rng.integers(0, 2, size=(30, 60)).astype(float)
    sol = solve_lp(LpProblem(c=np.ones(60), A_eq=A, b_eq=np.zeros(30),
                             lower=np.zeros(60), upper=np.ones(60)))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_redundant_rows_handled():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    sol = solve_lp(LpProblem(c=[1.0, 0.0], A_eq=A, b_eq=[1.0, 2.0],
                             lower=[0.0, 0.0], upper=[1.0, 1.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("k, m, seed, degenerate", [
    # x0 is the optimum, a vertex with no free coordinate; a dense bounded
    # simplex ran into its iteration limit here
    (30, 90, 30_900, True),
    # a fractional vertex with m free coordinates
    (30, 60, 30_600, False),
])
def test_biased_n300_box_bp_meets_kkt(k, m, seed, degenerate):
    # box-BP on the desk ensemble's biased {0, 2} matrix at N=300
    N = 300
    A = gen_matrix(EnsembleConfig(kind="biased", m=m, N=N, mu=1.0, sigma=1.0,
                                  lambda_bound=1.0, seed=seed)).entries
    x0 = gen_sparse_binary(N, k, seed=seed + 1).dense()
    b = A @ x0
    sol = solve_lp(LpProblem(c=np.ones(N), A_eq=A, b_eq=b, lower=np.zeros(N), upper=np.ones(N)))
    assert sol.status == "optimal"
    assert (np.linalg.norm(sol.x - x0) <= 1e-8) == degenerate
    violations = lp_kkt_violations(np.ones(N), A, b, np.zeros(N), np.ones(N), sol.x,
                                   y=sol.dual_eq if degenerate else None)
    assert max(violations.values()) <= 1e-7, violations


def test_inconsistent_dimensions_rejected():
    with pytest.raises(ValueError):
        LpProblem(c=[1.0, 2.0], A_eq=[[1.0]], b_eq=[1.0])
    with pytest.raises(ValueError):
        LpProblem(c=[1.0], lower=[1.0], upper=[0.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_lp_optimum_matches_oracle_property(seed):
    rng = np.random.default_rng(seed)
    c, A, b, lower, upper = random_bounded_lp(rng, max_n=6, max_p=3)
    status, obj = enumerate_lp_optimum(c, A, b, lower, upper)
    sol = solve_lp(LpProblem(c=c, A_eq=A if A.size else None,
                             b_eq=b if A.size else None,
                             lower=lower, upper=upper))
    assert sol.status == status
    if status == "optimal":
        assert sol.objective == pytest.approx(obj, abs=1e-7, rel=1e-7)


# --- box-constrained least squares ---------------------------------------

def test_box_ls_identity_interior():
    b = np.array([0.2, 0.5, 0.9])
    res = solve_box_ls(np.eye(3), b)
    assert res.converged
    assert np.allclose(res.x, b, atol=1e-9)


def test_box_ls_identity_projects_onto_box():
    res = solve_box_ls(np.eye(4), 2.0 * np.ones(4))
    assert np.allclose(res.x, np.ones(4), atol=1e-9)


def _kkt_instance():
    rng = np.random.default_rng(3)
    return rng.standard_normal((15, 25)), rng.standard_normal(15)


def test_box_ls_point_meets_kkt():
    A, b = _kkt_instance()
    res = solve_box_ls(A, b)
    assert res.converged
    violations = box_qp_kkt_violations(A, b, 0.0, 1.0, res.x)
    assert max(violations.values()) <= 1e-8, violations
    gamma = 1.0 / (np.linalg.norm(A, 2) ** 2)
    fp = res.x - np.clip(res.x - gamma * (A.T @ (A @ res.x - b)), 0.0, 1.0)
    assert np.linalg.norm(fp) <= 1e-8


def test_box_ls_unique_feasible_point_recovered():
    # with ker(A) meeting the sign cone of K trivially, {x in box: Ax = A 1_K}
    # is the singleton {1_K}, so least squares must land exactly there
    rng = np.random.default_rng(17)
    for _ in range(20):
        A = rng.standard_normal((20, 40))
        K = rng.permutation(40)[:8]
        if not check_kernel_cone(A, ConeSpec.sign_cone(40, K)).holds:
            continue
        x0 = np.zeros(40)
        x0[K] = 1.0
        res = solve_box_ls(A, A @ x0)
        assert np.linalg.norm(res.x - x0) <= 1e-9
        return
    pytest.fail("no instance with trivial kernel-cone intersection found")


def _box_ls_instance():
    # b far outside A's image of the box, so that most bounds are active
    rng = np.random.default_rng(8)
    A = rng.standard_normal((30, 80))
    return A, 3.0 * rng.standard_normal(30)


def _fixed_point_residual(A, b, x, c=0.0):
    """How far the projected-gradient step 1/(1.01 ||A||_2^2) moves x, the
    spectral norm taken by SVD apart from the library's eigendecomposition."""
    gamma = 1.0 / (1.01 * np.linalg.norm(A, 2) ** 2)
    return np.linalg.norm(x - np.clip(x - gamma * (A.T @ (A @ x - b) + c), 0.0, 1.0))


def test_box_ls_max_iter_flagged_not_raised(monkeypatch):
    # box-LS keeps scipy's own iteration cap; a cap of 2 makes it bind
    monkeypatch.setattr(optim, "lsq_linear", functools.partial(lsq_linear, max_iter=2))
    A, b = _box_ls_instance()
    res = solve_box_ls(A, b)
    assert res.x.shape == (80,)
    assert np.all((res.x >= 0) & (res.x <= 1))
    # converged must truthfully report the fixed-point criterion
    assert _fixed_point_residual(A, b, res.x) > 1e-10
    assert not res.converged and res.status == "max_iter"


@pytest.mark.parametrize("shape", [(3, 5), (6, 4)])
def test_box_ls_on_the_zero_matrix(shape):
    # every point of the box is a minimizer, and A^T A has no positive
    # eigenvalue to set the fixed-point test's step from
    A = np.zeros(shape)
    b = np.ones(shape[0])
    for res in (solve_box_ls(A, b), solve_box_qp(A, b)):
        assert res.status == "converged"
        assert np.all(np.isfinite(res.x)) and np.all((res.x >= 0) & (res.x <= 1))


@pytest.mark.parametrize("c", [0.3, np.array([0.5, -0.2, 0.0, 1.5, 0.7])])
def test_box_qp_linear_term(c):
    # with A = I the minimizer of 0.5*||x - b||^2 + c.x over the box is
    # clip(b - c); a scalar c stands for c*1
    b = np.array([0.9, 0.4, 1.3, 0.8, -0.2])
    res = solve_box_qp(np.eye(5), b, c=c)
    assert res.status == "converged"
    assert np.allclose(res.x, np.clip(b - c, 0.0, 1.0), atol=1e-12)
    # the warm start changes the path, not the answer
    again = solve_box_qp(np.eye(5), b, c=c, x0=np.full(5, 0.5))
    assert np.allclose(again.x, res.x, atol=1e-12)


@pytest.mark.parametrize("instance", [_kkt_instance, _box_ls_instance])
def test_converged_is_the_fixed_point_test(monkeypatch, instance):
    # both solvers' converged, read after they return, agrees with the
    # oracle, on their own answers and on BVLS's under a cap of 2 iterations;
    # each instance has verdicts both ways
    A, b = instance()
    results = [(solve_box_ls(A, b), 0.0, TOL_BOX_LS)]
    for c in (0.0, 0.3):
        results.append((solve_box_qp(A, b, c=c), c, 1e-10))
        results.append((solve_box_qp(A, b, c=c, x0=np.ones(A.shape[1]), tol=1e-11), c, 1e-11))
    monkeypatch.setattr(optim, "lsq_linear", functools.partial(lsq_linear, max_iter=2))
    results.append((solve_box_ls(A, b), 0.0, TOL_BOX_LS))
    verdicts = [res.converged for res, _, _ in results]
    assert verdicts == [_fixed_point_residual(A, b, res.x, c) <= tol for res, c, tol in results]
    assert True in verdicts and False in verdicts


def test_optim_imports_no_binrec_module():
    # optim is the bottom layer: every other binrec module may import it,
    # so an import of one of them, even inside a function, is a cycle
    tree = ast.parse(Path(optim.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported
    assert not [name for name in imported if name.startswith((".", "binrec"))], imported
