"""Dense convex solvers: box-bounded LPs and least squares on the unit box.

LPs go to scipy's HiGHS dual simplex with its presolve off: on binrec's
dense LPs presolve took about 30% of each solve at N=100, and a third at
N=500.  Least squares over [0,1]^N goes to scipy's BVLS
(``lsq_linear(method="bvls")``; Stark and Parker, Comput. Stat. 10, 1995)
whatever the shape of A.
``solve_box_qp`` solves the same program plus a linear term c.x by
scipy's L-BFGS-B.  No library code calls it: the acceptance tests use it
with c = 0 as a multi-start uniqueness probe, and the benchmark's tracer
wraps it.  Both build their ``BoxLsResult`` through one helper, which
keeps the point, its residual, the iteration count and the problem
solved.  The projected-gradient fixed-point test behind ``converged`` and
``status``, with its Gram eigendecomposition, runs only when one of them
is read, so a caller that reads the point and its residual alone runs
none.  ``lp_feasible`` has no library caller either; it stays for the
benchmark tracer's phase-1 probe, and ``test_optim`` tests it.

This module imports no other binrec module.  What the solvers' points
mean for the recovery programs, such as whether a vertex BVLS lands on is
the unique minimizer, is decided in ``recovery``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import fmin_l_bfgs_b, linprog, lsq_linear

# HiGHS's primal feasibility tolerance: how far a returned point may leave a
# constraint row before clipping into its bounds; the kernel-cone check
# accepts an NNLS witness to the same row tolerance
TOL_FEAS = 1e-9


class SolverFailure(RuntimeError):
    """A solver stopped without a verdict: HiGHS on an LP, or the NNLS and
    BVLS solves behind ``analysis.check_kernel_cone`` (iteration limit,
    numerical trouble, an answer that fails its post-solve check).

    Deliberately distinct from an infeasible/unbounded verdict, which is a
    property of the problem and reported through LpSolution.status.
    """


@dataclass
class LpProblem:
    """min c.x  s.t.  A_eq x = b_eq,  A_ineq x <= b_ineq,  lower <= x <= upper."""

    c: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        if self.A_eq is None:
            self.A_eq = np.zeros((0, n))
            self.b_eq = np.zeros(0)
        self.A_eq = np.atleast_2d(np.asarray(self.A_eq, dtype=float))
        self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        if self.A_ineq is None:
            self.A_ineq = np.zeros((0, n))
            self.b_ineq = np.zeros(0)
        self.A_ineq = np.atleast_2d(np.asarray(self.A_ineq, dtype=float))
        self.b_ineq = np.atleast_1d(np.asarray(self.b_ineq, dtype=float))
        self.lower = np.full(n, -np.inf) if self.lower is None else np.asarray(self.lower, dtype=float)
        self.upper = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float)
        if self.A_eq.shape != (self.b_eq.size, n) or self.A_ineq.shape != (self.b_ineq.size, n):
            raise ValueError("inconsistent LP dimensions")
        if self.lower.size != n or self.upper.size != n:
            raise ValueError("bound vectors must have one entry per variable")
        if np.any(self.lower > self.upper + 1e-15):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def n(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective: float = math.nan
    dual_eq: np.ndarray | None = None


_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _highs(p: LpProblem, c: np.ndarray):
    """(status, result) of HiGHS's dual simplex on ``p`` with objective c;
    any other outcome than a verdict raises SolverFailure."""
    res = linprog(c, A_ub=p.A_ineq, b_ub=p.b_ineq, A_eq=p.A_eq, b_eq=p.b_eq,
                  bounds=np.column_stack([p.lower, p.upper]),
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": TOL_FEAS, "presolve": False})
    if res.status not in _HIGHS_STATUS:
        raise SolverFailure(f"HiGHS: {res.message}")
    return _HIGHS_STATUS[res.status], res


def solve_lp(p: LpProblem) -> LpSolution:
    """Optimal point, objective and equality multipliers of ``p``, or its
    infeasible/unbounded verdict.  The point is clipped into its bounds."""
    status, res = _highs(p, p.c)
    if status != "optimal":
        return LpSolution(status=status)
    x = np.clip(res.x, p.lower, p.upper)
    return LpSolution(status="optimal",
                      x=x,
                      objective=float(p.c @ x),
                      dual_eq=np.asarray(res.eqlin.marginals, dtype=float))


def lp_feasible(p: LpProblem):
    """Feasibility check, ignoring the objective; returns (feasible,
    witness-or-None)."""
    status, res = _highs(p, np.zeros(p.n))
    if status != "optimal":
        return False, None
    return True, np.clip(res.x, p.lower, p.upper)


# --- box-constrained least squares ---------------------------------------

# BVLS's tolerance in ``solve_box_ls`` and its fixed-point test's
TOL_BOX_LS = 1e-10


@dataclass
class BoxLsResult:
    """A box solver's point x for min 0.5*||Ax-b||^2 + c.x over [0,1]^N,
    with the problem it was solved for.  ``converged`` and ``status`` are
    computed from that problem when read, not when the solver returns."""

    x: np.ndarray
    residual_norm: float
    iterations: int
    capped: bool  # the solver stopped at its iteration cap
    A: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray | float = field(repr=False)
    tol: float = field(repr=False)

    @property
    def converged(self) -> bool:
        """The projected-gradient step from x moves it by at most tol.  The
        step is 1/L with L just above A^T A's largest eigenvalue, read off
        the smaller Gram matrix; 1 on the zero matrix."""
        A, x = self.A, self.x
        m, N = A.shape
        lam = np.max(np.linalg.eigvalsh(A @ A.T if m < N else A.T @ A), initial=0.0)
        step = 1.0 / (1.01 * lam) if lam > 0 else 1.0
        g = A.T @ (A @ x - self.b) + self.c
        return bool(np.linalg.norm(x - np.clip(x - step * g, 0.0, 1.0)) <= self.tol)

    @property
    def status(self) -> str:
        """converged | max_iter (the iteration cap stopped the solver short
        of the fixed point) | stalled (the solver stopped on its own short
        of it)."""
        return "converged" if self.converged else "max_iter" if self.capped else "stalled"


def _box_result(A, b, c, x, iterations, tol, capped) -> BoxLsResult:
    return BoxLsResult(x, float(np.linalg.norm(A @ x - b)), iterations, capped, A, b, c, tol)


def solve_box_qp(A, b, c=0.0, tol=1e-10, x0=None) -> BoxLsResult:
    """min 0.5*||Ax-b||^2 + c.x over [0,1]^N (``c`` a vector or a scalar
    for c*1), by scipy's L-BFGS-B from ``x0`` (the origin when None), with
    no stop on the objective's progress, its projected-gradient stop at
    ``tol`` and a cap of 50 N iterations.  A multi-start caller sees tied
    optima as the solver leaves them."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    N = A.shape[1]
    c = np.broadcast_to(np.asarray(c, dtype=float), N)

    # two functions, not one returning both: scipy would wrap that in its
    # MemoizeJac, whose compare and copy of x on every evaluation cost more
    # than the residual they save at desk scale
    def objective(z):
        r = A @ z - b
        return 0.5 * float(r @ r) + float(c @ z)

    def gradient(z):
        return A.T @ (A @ z - b) + c

    x = np.clip(np.zeros(N) if x0 is None else np.asarray(x0, dtype=float), 0.0, 1.0)
    x, _, info = fmin_l_bfgs_b(objective, x, fprime=gradient, bounds=[(0.0, 1.0)] * N,
                               factr=0.0, pgtol=tol, maxiter=50 * N)
    # L-BFGS-B's warnflag 1 is its iteration (or evaluation) limit
    return _box_result(A, b, c, np.clip(x, 0.0, 1.0), info["nit"], tol, info["warnflag"] == 1)


def solve_box_ls(A, b) -> BoxLsResult:
    """min ||Ax-b||_2 over [0,1]^N by scipy's BVLS, whatever the shape of A,
    at TOL_BOX_LS, which is also ``converged``'s tolerance.  A point that
    misses it is ``max_iter`` only when BVLS hit scipy's iteration cap (N).
    The point comes back as BVLS leaves it, clipped to the box, also on a
    vertex; ``recovery.box_ls`` decides whether such a vertex may stand."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    res = lsq_linear(A, b, bounds=(0.0, 1.0), method="bvls", tol=TOL_BOX_LS)
    # lsq_linear's status 0 is its iteration limit
    return _box_result(A, b, 0.0, np.clip(res.x, 0.0, 1.0), res.nit, TOL_BOX_LS, res.status == 0)
