"""Dense convex solvers: box-bounded LPs and least squares on the unit box.

LPs go to scipy's HiGHS dual simplex with its presolve off: on binrec's
dense LPs presolve took about 30% of each solve at N=100, and a third at
N=500.  Least squares over [0,1]^N goes to scipy's BVLS
(``lsq_linear(method="bvls")``) when A has full column rank, and otherwise
to its trust-region reflective method (``lsq_linear(method="trf")``),
which is polished by an active-set step when its point misses the
projected-gradient fixed-point test.
``solve_box_qp`` solves the same program plus a linear term c.x by
scipy's L-BFGS-B, never polished: ``recovery.robust_box_bp`` calls it with
c = lam*1, once for lam = 0 and then once per probe of its search over
lam, and the acceptance tests call
it with c = 0 as a multi-start uniqueness probe.  Both report convergence
by the same fixed-point test.  ``lp_feasible`` has no library caller
since that check left HiGHS for NNLS; it stays for the benchmark tracer's
phase-1 probe and the tests' kernel-cone oracle.

BVLS is an active-set method and lands on a vertex of the box when the
least-squares solution set is not a single point, which would make box_ls
look like it recovers binary signals that its program does not determine.
With full column rank the objective is strictly convex and its minimizer
unique, so there is nothing to choose between; on tall matrices TRF can
stop short of the fixed point where BVLS finishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import fmin_l_bfgs_b, linprog, lsq_linear

# HiGHS's primal feasibility tolerance: how far a returned point may leave a
# constraint row before clipping into its bounds; the kernel-cone check
# accepts an NNLS witness to the same row tolerance
TOL_FEAS = 1e-9


class SolverFailure(RuntimeError):
    """A solver stopped without a verdict: HiGHS on an LP, or the NNLS
    solve behind ``analysis.check_kernel_cone`` (iteration limit, numerical
    trouble, an answer that fails its post-solve check).

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

@dataclass
class BoxLsResult:
    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    # converged | max_iter (the iteration cap stopped the solver short of the
    # fixed point) | stalled (the solver stopped on its own short of it)
    status: str


class _BoxQp:
    """min 0.5*||Ax-b||^2 + c.x over the unit box [0,1]^N."""

    def __init__(self, A, b, c=0.0):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        m, N = self.A.shape
        self.c = np.broadcast_to(np.asarray(c, dtype=float), N)
        # step 1/L with L just above A^T A's largest eigenvalue, read off the
        # smaller Gram matrix; 1 on the zero matrix
        G = self.A @ self.A.T if m < N else self.A.T @ self.A
        lam = np.max(np.linalg.eigvalsh(G), initial=0.0)
        self.gamma = 1.0 / (1.01 * lam) if lam > 0 else 1.0

    def proj(self, z):
        return np.clip(z, 0.0, 1.0)

    def grad(self, z):
        return self.A.T @ (self.A @ z - self.b) + self.c

    def obj(self, z):
        r = self.A @ z - self.b
        return 0.5 * float(r @ r) + float(self.c @ z)

    def fixed_point(self, x, tol) -> bool:
        """The projected-gradient step from x moves it by at most tol."""
        return bool(np.linalg.norm(x - self.proj(x - self.gamma * self.grad(x))) <= tol)

    def polish(self, x):
        """Active-set polish: snap near-bound coordinates, solve the free
        block exactly, and keep the result only if the objective strictly
        decreases.  Iterative methods stall on near-singular A (solution
        error can sit orders of magnitude above the fixed-point residual
        along tiny-singular-value directions); this finishes the job."""
        A = self.A
        f_x = self.obj(x)
        for snap in (1e-3, 1e-6, 1e-9):
            lo_act = x <= snap
            hi_act = 1.0 - x <= snap
            cand = np.where(lo_act, 0.0, np.where(hi_act, 1.0, x))
            free = ~(lo_act | hi_act)
            if np.any(free):
                r = self.b - A[:, ~free] @ cand[~free]
                Af = A[:, free]
                sol = np.linalg.lstsq(Af.T @ Af, Af.T @ r - self.c[free], rcond=None)[0]
                cand[free] = self.proj(sol)
            f_cand = self.obj(cand)
            if f_cand < f_x:
                x, f_x = cand, f_cand
        return x

    def result(self, x, iterations, tol, capped) -> BoxLsResult:
        """``capped``: the solver stopped at its iteration cap."""
        converged = self.fixed_point(x, tol)
        return BoxLsResult(x=x,
                           residual_norm=float(np.linalg.norm(self.A @ x - self.b)),
                           iterations=iterations,
                           converged=converged,
                           status="converged" if converged else "max_iter" if capped else "stalled")


def solve_box_qp(A, b, c=0.0, tol=1e-10, x0=None) -> BoxLsResult:
    """min 0.5*||Ax-b||^2 + c.x over [0,1]^N (``c`` a vector or a scalar
    for c*1), by scipy's L-BFGS-B from ``x0`` (the origin when None), with
    no stop on the objective's progress, its projected-gradient stop at
    ``tol`` and a cap of 50 N iterations.

    The point is not polished: a multi-start caller sees tied optima as
    they are, where the polish would break ties toward on-bound points."""
    N = np.shape(A)[1]
    x = np.clip(np.zeros(N) if x0 is None else np.asarray(x0, dtype=float), 0.0, 1.0)
    qp = _BoxQp(A, b, c)
    x, _, info = fmin_l_bfgs_b(qp.obj, x, fprime=qp.grad, bounds=[(0.0, 1.0)] * N,
                               factr=0.0, pgtol=tol, maxiter=50 * N)
    # L-BFGS-B's warnflag 1 is its iteration (or evaluation) limit
    return qp.result(qp.proj(x), info["nit"], tol, capped=info["warnflag"] == 1)


def solve_box_ls(A, b, tol=1e-10) -> BoxLsResult:
    """min ||Ax-b||_2 over [0,1]^N.  When A (m x N) has full column rank,
    that is m >= N and ``np.linalg.matrix_rank(A) == N`` at numpy's default
    tolerance (largest singular value * max(m, N) * machine epsilon), by
    scipy's BVLS; otherwise by its trust-region reflective method, polished
    when its point misses the fixed point.  ``converged`` is the
    projected-gradient fixed-point test at ``tol``, and a point that misses
    it is ``max_iter`` only when the solver hit scipy's own iteration cap
    (100 for TRF, N for BVLS)."""
    qp = _BoxQp(A, b)
    m, N = qp.A.shape
    full_rank = m >= N and np.linalg.matrix_rank(qp.A) == N
    res = lsq_linear(qp.A, qp.b, bounds=(0.0, 1.0),
                     method="bvls" if full_rank else "trf", tol=tol)
    x = qp.proj(res.x)
    # TRF's iterates stay strictly inside the box, so they often end short of
    # the fixed point; only then polish.  Polishing a point that already
    # passes would only trade one minimizer for another, snapping towards a
    # vertex of the box where the least-squares solution set is wide.
    if not full_rank and not qp.fixed_point(x, tol):
        x = qp.polish(x)
    # lsq_linear's status 0 is its iteration limit, for either method
    return qp.result(x, res.nit, tol, capped=res.status == 0)
