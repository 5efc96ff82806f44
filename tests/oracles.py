"""Independent oracles used by the unit and acceptance tests.

The LP oracle enumerates basic solutions directly (choose basic columns,
pin every nonbasic variable at one of its bounds, solve the square system)
and therefore shares no code path with the LP solver.  The KKT oracles
judge a returned point by the optimality conditions alone, so they apply at
sizes enumeration cannot reach.  The kernel-cone oracle poses the
library's NNLS-decided question as the feasibility LP it once was.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

FEAS_TOL = 1e-8
KERNEL_CONE_FEAS_TOL = 1e-9


def enumerate_lp_optimum(c, A_eq, b_eq, lower, upper):
    """Brute-force optimum of min c.x s.t. A_eq x = b_eq, lower <= x <= upper
    with all bounds finite.  Returns (status, objective).

    The feasible region is a bounded polytope, so if it is nonempty some
    vertex is optimal, and every vertex arises from a choice of p basic
    columns plus a bound assignment of the rest.
    """
    c = np.asarray(c, dtype=float)
    A = np.atleast_2d(np.asarray(A_eq, dtype=float))
    b = np.asarray(b_eq, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    p, n = A.shape if A.size else (0, c.size)
    best = None
    if p == 0:
        x = np.where(c >= 0, lower, upper)
        return "optimal", float(c @ x)
    for basic in itertools.combinations(range(n), p):
        basic = list(basic)
        B = A[:, basic]
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        nonbasic = [j for j in range(n) if j not in basic]
        for corner in itertools.product((0, 1), repeat=len(nonbasic)):
            x = np.empty(n)
            for j, side in zip(nonbasic, corner):
                x[j] = upper[j] if side else lower[j]
            rhs = b - A[:, nonbasic] @ x[nonbasic] if nonbasic else b
            x[basic] = np.linalg.solve(B, rhs)
            if np.any(x < lower - FEAS_TOL) or np.any(x > upper + FEAS_TOL):
                continue
            val = float(c @ x)
            if best is None or val < best:
                best = val
    if best is None:
        return "infeasible", np.nan
    return "optimal", best


def random_bounded_lp(rng, max_n=8, max_p=4):
    """A random small LP with finite bounds; equality rows built so that
    roughly half the instances are feasible."""
    n = int(rng.integers(1, max_n + 1))
    p = int(rng.integers(0, min(max_p, n) + 1))
    c = rng.standard_normal(n)
    lower = rng.uniform(-2, 0, n)
    upper = lower + rng.uniform(0, 3, n)
    A = rng.standard_normal((p, n)) if p else np.zeros((0, n))
    if p and rng.random() < 0.7:
        # right-hand side from an interior point: certainly feasible
        x0 = rng.uniform(lower, upper)
        b = A @ x0
    else:
        b = rng.standard_normal(p)
    return c, A, b, lower, upper


def lp_kkt_violations(c, A_eq, b_eq, lower, upper, x, y=None, bound_tol=1e-9):
    """How far x is from optimal for min c.x s.t. A_eq x = b_eq,
    lower <= x <= upper (finite bounds).

    The equality multipliers y are recomputed by least squares on the free
    columns, those more than ``bound_tol`` inside both bounds.  That
    determines y at a nondegenerate vertex.  At a degenerate one (fewer
    free columns than independent rows, as at a recovered binary signal,
    where no column is free) pass candidate multipliers as ``y``: they are
    checked, not trusted.  With reduced costs r = c - A^T y, optimality
    needs r >= 0 at lower bounds, r <= 0 at upper bounds and r = 0 on free
    columns, and then the dual value y.b + sum_j min(r_j l_j, r_j u_j)
    equals c.x; any y passing both proves x optimal by weak duality.
    Returns the violations: primal residual ||Ax - b||_inf relative to
    max(1, ||b||_inf), box, reduced-cost signs, and the duality gap
    relative to max(1, |c.x|).
    """
    c, A, b, lower, upper, x = (np.asarray(v, dtype=float)
                                for v in (c, A_eq, b_eq, lower, upper, x))
    at_lo = x <= lower + bound_tol
    at_hi = ~at_lo & (x >= upper - bound_tol)
    free = ~(at_lo | at_hi)
    if y is None:
        y = np.linalg.lstsq(A[:, free].T, c[free], rcond=None)[0]
    r = c - A.T @ y
    sign = np.concatenate([np.abs(r[free]), -r[at_lo], r[at_hi], [0.0]])
    primal = float(c @ x)
    dual = float(y @ b) + float(np.sum(np.minimum(r * lower, r * upper)))
    return {
        "primal": float(np.max(np.abs(A @ x - b), initial=0.0))
        / max(1.0, float(np.max(np.abs(b), initial=0.0))),
        "box": float(max(np.max(lower - x), np.max(x - upper), 0.0)),
        "reduced_cost": float(np.max(sign)),
        "gap": abs(primal - dual) / max(1.0, abs(primal)),
    }


def box_qp_kkt_violations(A, b, lower, upper, x, bound_tol=1e-9):
    """How far x is from optimal for min 0.5*||Ax - b||^2 over
    lower <= x <= upper: the box violation and the largest breach of the
    gradient's sign conditions (g = 0 on free coordinates, g >= 0 at lower
    bounds, g <= 0 at upper bounds).  The problem is convex, so both at
    zero make x a minimizer."""
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), x.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), x.shape)
    g = A.T @ (A @ x - np.asarray(b, dtype=float))
    at_lo = x <= lower + bound_tol
    at_hi = ~at_lo & (x >= upper - bound_tol)
    free = ~(at_lo | at_hi)
    sign = np.concatenate([np.abs(g[free]), -g[at_lo], g[at_hi], [0.0]])
    return {
        "box": float(max(np.max(lower - x), np.max(x - upper), 0.0)),
        "gradient": float(np.max(sign)),
    }


def robust_kkt_violations(A, b, eta, x, bound_tol=1e-9):
    """How far x is from optimal for min 1.x s.t. ||Ax - b|| <= eta,
    0 <= x <= 1 (eta > 0).

    With r = Ax - b, the Lagrangian's gradient in x is g = 1 + mu A^T r for
    the ball's multiplier mu >= 0 (on the ball written 0.5*||r||^2 <=
    0.5*eta^2).  mu is recovered by least squares on the free coordinates,
    those more than ``bound_tol`` inside the box; with none free it is 0,
    the inactive-ball case.  Optimality needs g = 0 on free coordinates,
    g >= 0 at 0, g <= 0 at 1, mu >= 0 and mu*(eta - ||r||) = 0; the program
    is convex, so these make x a minimizer.  Returns the violations: ball
    (||r|| - eta), box, multiplier sign, stationarity on the free
    coordinates, the bound signs and complementary slackness.
    """
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    r = A @ x - np.asarray(b, dtype=float)
    v = A.T @ r
    at_lo = x <= bound_tol
    at_hi = ~at_lo & (x >= 1.0 - bound_tol)
    free = ~(at_lo | at_hi)
    vf = v[free]
    mu = -float(np.sum(vf)) / float(vf @ vf) if np.any(free) and vf @ vf > 0 else 0.0
    g = 1.0 + mu * v
    norm_r = float(np.linalg.norm(r))
    return {
        "ball": max(norm_r - eta, 0.0),
        "box": float(max(np.max(-x), np.max(x - 1.0), 0.0)),
        "multiplier": max(-mu, 0.0),
        "stationarity": float(np.max(np.abs(g[free]), initial=0.0)),
        "sign": float(np.max(np.concatenate([-g[at_lo], g[at_hi], [0.0]]))),
        "slackness": mu * abs(eta - norm_r),
    }


def lp_kernel_cone_fails(A, signs, sum_nonpos=False):
    """Does ker(A) meet the cone of ``signs`` (plus sum(w) <= 0 when
    ``sum_nonpos``) in a nonzero point?  Decided by HiGHS's dual simplex,
    without presolve and to a primal feasibility tolerance of
    KERNEL_CONE_FEAS_TOL, on the feasibility LP Aw = 0, s.w = 1, the sign
    bounds and the optional sum row; s.w is sum|w| on the cone, so the
    normalization excludes only w = 0."""
    A = np.asarray(A, dtype=float)
    s = np.asarray(signs, dtype=float)
    m, N = A.shape
    if not s.any():
        return False
    b_eq = np.zeros(m + 1)
    b_eq[-1] = 1.0
    res = linprog(np.zeros(N), A_eq=np.vstack([A, s]), b_eq=b_eq,
                  A_ub=np.ones((1, N)) if sum_nonpos else None,
                  b_ub=np.zeros(1) if sum_nonpos else None,
                  bounds=np.column_stack([np.minimum(s, 0.0), np.maximum(s, 0.0)]),
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": KERNEL_CONE_FEAS_TOL,
                           "presolve": False})
    if res.status not in (0, 2):
        raise RuntimeError(f"kernel-cone oracle: HiGHS gave no verdict: {res.message}")
    return res.status == 0
