"""Output checks that share no code with binrec's solvers or condition checks.

LPs go to scipy's HiGHS, the robust program to scipy's SLSQP, and the
certificate is recomputed in numpy from the lemma's formula.  Every function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog, minimize

# A returned LP point must satisfy Ax = b to this relative tolerance and the
# box to BOX_TOL; its objective must match HiGHS to OBJ_TOL relative.
EQ_TOL = 1e-7
BOX_TOL = 1e-9
OBJ_TOL = 1e-6
# max ||x - x0||_1 over the box-BP optimal face (or the feasible set): at
# most UNIQUE_TOL means x0 is the unique optimum (or the only feasible
# point); at least WIDE_TOL means a converged box_ls point is not x0.
UNIQUE_TOL = 1e-6
WIDE_TOL = 1e-2
# the sweep's own success tolerance (ExperimentConfig.success_tol)
SUCCESS_TOL = 1e-4
# robust_box_bp stops once ||Ax - b - z|| <= 1e-8 with ||z|| <= eta, so its
# point may leave the noise ball by that much.
BALL_TOL = 1e-8
# SLSQP's own stop leaves its point up to a few 1e-8 outside the ball.  The
# optimum moves with eta at slope below 1 on these instances, so a reference
# that far out is still far more accurate than ROBUST_OBJ_TOL.
REF_BALL_TOL = 1e-6
ROBUST_OBJ_TOL = 1e-6


def _highs(c, A_eq, b_eq, A_ub=None, b_ub=None):
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return res.fun


def spread(A, x0, l1_cap: bool) -> float:
    """max ||x - x0||_1 over {x in [0,1]^N : Ax = Ax0}, with 1.x <= 1.x0 as
    well when ``l1_cap``.  With the cap it is 0 exactly when x0 is the
    unique box-BP optimum, without it exactly when x0 is the only feasible
    point.  For binary x0 the l1 distance is linear on the box: sum of x off
    the support plus sum of 1 - x on it."""
    w = np.where(x0 > 0.5, 1.0, -1.0)  # -||x - x0||_1 = w.x - k
    k = float(x0.sum())
    cap = (np.ones((1, x0.size)), [k]) if l1_cap else (None, None)
    return -(_highs(w, A, A @ x0, *cap) - k)


def recovered(x, x0) -> bool:
    """The sweep's success criterion: ||x - x0||_2 <= 1e-4 max(1, ||x0||_2)."""
    return x is not None and \
        float(np.linalg.norm(x - x0)) <= SUCCESS_TOL * max(1.0, float(np.linalg.norm(x0)))


def check_sweep_trial(A, x0, reports, records) -> list:
    """One desk-sweep trial.  Every box-BP point is feasible and optimal by
    HiGHS, and x0 the unique box-BP optimum implies box_bp and mibi_bp
    recover it.  A converged box_ls point lies in the box, and box_ls
    recovers x0 exactly when x0 is the only feasible point."""
    problems = []
    N = x0.size
    b0 = A @ x0
    lp_opt = {}
    for (program, b, rep), rec in zip(reports, records):
        if not np.array_equal(b, b0):
            problems.append(f"{program}: measurement vector is not A x0")
        x = rep.x_hat
        if x is None:
            problems.append(f"{program}: no point for a feasible instance")
            continue
        if rec.success != recovered(x, x0):
            problems.append(f"{program}: recorded success {rec.success} for "
                            f"||x - x0|| = {np.linalg.norm(x - x0):.2e}")
        if np.min(x) < -BOX_TOL or np.max(x) > 1 + BOX_TOL:
            problems.append(f"{program}: point leaves the box by "
                            f"{max(-np.min(x), np.max(x) - 1):.2e}")
        if program == "box_ls":
            if rep.solver_status == "converged":
                problems += check_box_ls(A, x0, x)
            continue
        resid = float(np.max(np.abs(A @ x - b0)))
        if resid > EQ_TOL * max(1.0, float(np.max(np.abs(b0)))):
            problems.append(f"{program}: |Ax - b|_inf = {resid:.2e}")
        mirror = rep.branch_chosen == "mirror"
        if mirror not in lp_opt:
            c = -np.ones(N) if mirror else np.ones(N)
            lp_opt[mirror] = _highs(c, A, b0) + (N if mirror else 0.0)
        if abs(rep.objective - lp_opt[mirror]) > OBJ_TOL * max(1.0, abs(lp_opt[mirror])):
            problems.append(f"{program}: objective {rep.objective:.10g} vs HiGHS "
                            f"{lp_opt[mirror]:.10g}")
    if spread(A, x0, l1_cap=True) <= UNIQUE_TOL:
        problems += [f"{r.program}: x0 is the unique box-BP optimum but was not recovered"
                     for r in records if r.program != "box_ls" and not r.success]
    return problems


def check_box_ls(A, x0, x) -> list:
    """A converged box_ls point recovers x0 when x0 is the only feasible
    point, and does not when the feasible set reaches WIDE_TOL away from
    x0.  Between the two the check makes no claim."""
    s = spread(A, x0, l1_cap=False)
    if s <= UNIQUE_TOL and not recovered(x, x0):
        return [f"box_ls: x0 is the only feasible point but ||x - x0|| = "
                f"{np.linalg.norm(x - x0):.2e}"]
    if s >= WIDE_TOL and recovered(x, x0):
        return [f"box_ls: recovered x0 although the feasible set reaches {s:.2e} from it"]
    return []


def check_box_ls_fault(A, x0) -> list:
    """The fixed instance is what makes its box_ls solve a program fault:
    x0 must be the only feasible point there."""
    s = spread(A, x0, l1_cap=False)
    if s > UNIQUE_TOL:
        return [f"the feasible set reaches {s:.2e} from x0, so x0 need not be recovered"]
    return []


def slsqp_robust_optimum(A, b, eta, starts) -> float:
    """min 1.x  s.t.  ||Ax - b|| <= eta,  x in [0,1]^N by SLSQP with analytic
    Jacobians, from the first start that converges.  The ball is written
    1 - ||Ax - b||^2 / eta^2 >= 0 so that the constraint is of order one.
    SLSQP's "positive directional derivative" stop counts as converged: it
    means no descent step was left at its precision."""
    N = A.shape[1]
    ones = np.ones(N)

    def ball(x):
        r = A @ x - b
        return 1.0 - (r @ r) / (eta * eta)

    def ball_jac(x):
        return -2.0 * (A.T @ (A @ x - b)) / (eta * eta)

    messages = []
    for start in starts:
        res = minimize(lambda x: x.sum(), start, jac=lambda x: ones, method="SLSQP",
                       bounds=[(0.0, 1.0)] * N,
                       constraints=[{"type": "ineq", "fun": ball, "jac": ball_jac}],
                       options={"ftol": 1e-12, "maxiter": 1000})
        if (res.success or res.status == 8) and \
                np.linalg.norm(A @ res.x - b) <= eta + REF_BALL_TOL:
            return float(res.fun)
        messages.append(res.message)
    raise RuntimeError(f"SLSQP found no optimum: {messages}")


def robust_failure(A, b, eta, rep) -> str | None:
    """Why a robust solve counts as failed: it stopped at max_iter, or its
    point lies outside the noise ball.  None when it did not fail."""
    if rep.solver_status != "optimal" or rep.x_hat is None:
        return f"status {rep.solver_status}"
    gap = float(np.linalg.norm(A @ rep.x_hat - b)) - eta
    if gap > BALL_TOL:
        return f"outside the noise ball by {gap:.2e}"
    return None


def check_robust(A, b, eta, x0, rep) -> list:
    """A non-failed robust solve: point in the box, objective at most
    ||x0||_1, and equal to the SLSQP optimum."""
    x = rep.x_hat
    problems = []
    if np.min(x) < -BOX_TOL or np.max(x) > 1 + BOX_TOL:
        problems.append("robust_box_bp: point leaves the box")
    k = float(x0.sum())
    if rep.objective > k + ROBUST_OBJ_TOL * max(1.0, k):
        problems.append(f"robust_box_bp: objective {rep.objective:.10g} above ||x0||_1 = {k:g}")
    if abs(rep.objective - float(x.sum())) > 1e-9 * max(1.0, k):
        problems.append("robust_box_bp: reported objective is not 1.x")
    opt = slsqp_robust_optimum(A, b, eta, (x0, np.full(x0.size, 0.5)))
    if abs(rep.objective - opt) > ROBUST_OBJ_TOL * max(1.0, k):
        problems.append(f"robust_box_bp: objective {rep.objective:.10g} vs SLSQP {opt:.10g}")
    return problems


def check_certificate(A, A_zero_mu, mu, sigma, J, nu, margins, verified, norm_ok) -> list:
    """One certificate draw, recomputed from nu = rho 1 + D e - mean(D e) 1
    with D = A - mu 1, e the indicator of J and rho = -sigma^2/(4 mu), and
    checked against the lemma's threshold m sigma^2/36 and the stated norm
    bound m (rho^2 + sigma^2 (k + 1/k))."""
    problems = []
    if not np.all((A == mu + sigma) | (A == mu - sigma)):
        problems.append("matrix entries are not exactly mu +- sigma")
    if A_zero_mu is not None and not np.all(A - A_zero_mu == mu):
        problems.append("gen_matrix(mu) - gen_matrix(0) is not mu * ones")
    m, N = A.shape
    De = (A[:, J] - mu).sum(axis=1)
    ref = -sigma ** 2 / (4.0 * mu) + De - De.mean()
    scale = float(np.max(np.abs(ref)))
    if np.max(np.abs(nu - ref)) > 1e-9 * scale:
        problems.append(f"nu differs from the formula by {np.max(np.abs(nu - ref)):.2e}")
    sign = np.ones(N)
    sign[J] = -1.0
    ref_margins = sign * (A.T @ -ref) - m * sigma ** 2 / 36.0
    mscale = float(np.max(np.abs(ref_margins)))
    if np.max(np.abs(margins - ref_margins)) > 1e-9 * mscale:
        problems.append("verify_certificate margins differ from A^T nu")
    if verified != bool(np.all(ref_margins > 0)):
        problems.append("verify_certificate flag disagrees with the margins")
    bound = m * (sigma ** 4 / (16 * mu * mu) + sigma ** 2 * (len(J) + 1.0 / len(J)))
    if norm_ok != bool(ref @ ref <= bound):
        problems.append("norm-bound flag disagrees with ||nu||^2")
    return problems


def binomial_problems(count: int, n: int, p: float, what: str) -> list:
    """The count of n draws lies within 4 binomial standard deviations of
    the predicted rate p."""
    sd = math.sqrt(n * p * (1.0 - p))
    if abs(count - n * p) > 4.0 * sd + 1e-9:
        return [f"{what}: {count} of {n}, predicted rate {p:.4f} (4 sd = {4 * sd:.2f})"]
    return []
