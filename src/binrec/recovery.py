"""Recovery programs for binary signals on the box [0,1]^N.

On the nonnegative box, ||x||_1 = sum(x) and ||1-x||_1 = N - sum(x), so the
basis-pursuit programs and their mirrored variants are plain LPs.  The whole
artifact hinges on this reduction; it is applied here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensembles import BinarySignal, DenseMatrix
from .optim import LpProblem, SolverFailure, solve_box_ls, solve_box_qp, solve_lp

PROGRAMS = ("box_bp", "box_bp_mirror", "mibi_bp", "robust_box_bp", "box_ls")

DEFAULT_SUCCESS_TOL = 1e-4

# mibi_bp takes the mirror branch only when its distance to its own rounding
# is smaller than the plain branch's by more than this.  HiGHS returns
# vertices that are integral only to about 1e-9, so an exact comparison
# would break ties between two binary candidates at random.
MIBI_TIE_TOL = 1e-7


@dataclass
class RecoveryProblem:
    """One instance.  Treat it as immutable: the box-BP LPs solved on it are
    kept, so that every program run on the same problem solves each LP once."""

    A: DenseMatrix
    b: np.ndarray
    eta: float | None = None
    _bp_reports: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.A, np.ndarray):
            self.A = DenseMatrix(self.A)
        self.b = np.asarray(self.b, dtype=float)
        if self.b.size != self.A.m:
            raise ValueError(f"measurement vector length {self.b.size} != m={self.A.m}")
        if self.eta is not None and self.eta < 0:
            raise ValueError("noise level eta must be nonnegative")


@dataclass
class RecoveryReport:
    x_hat: np.ndarray | None
    program: str
    objective: float
    solver_status: str
    branch_chosen: str | None = None  # mibi_bp only

    @property
    def feasible(self) -> bool:
        return self.solver_status in ("optimal", "converged")


def _bp_lp(p: RecoveryProblem, mirror: bool) -> RecoveryReport:
    if mirror not in p._bp_reports:
        p._bp_reports[mirror] = _solve_bp_lp(p, mirror)
    return p._bp_reports[mirror]


def _solve_bp_lp(p: RecoveryProblem, mirror: bool) -> RecoveryReport:
    A = p.A.entries
    N = A.shape[1]
    c = -np.ones(N) if mirror else np.ones(N)
    sol = solve_lp(LpProblem(c=c, A_eq=A, b_eq=p.b, lower=np.zeros(N), upper=np.ones(N)))
    name = "box_bp_mirror" if mirror else "box_bp"
    if sol.status != "optimal":
        return RecoveryReport(None, name, np.nan, sol.status)
    # report the l1 objective of the program itself
    obj = N - float(np.sum(sol.x)) if mirror else float(np.sum(sol.x))
    return RecoveryReport(sol.x, name, obj, "optimal")


def box_bp(p: RecoveryProblem) -> RecoveryReport:
    """min ||x||_1  s.t.  Ax = b, x in [0,1]^N."""
    if p.eta is not None:
        raise ValueError("box_bp is noiseless; use robust_box_bp for eta > 0")
    return _bp_lp(p, mirror=False)


def box_bp_mirror(p: RecoveryProblem) -> RecoveryReport:
    """min ||1-x||_1  s.t.  Ax = b, x in [0,1]^N."""
    if p.eta is not None:
        raise ValueError("box_bp_mirror is noiseless; use robust_box_bp for eta > 0")
    return _bp_lp(p, mirror=True)


def round_to_binary(x: np.ndarray) -> np.ndarray:
    """Componentwise nearest integer; half-points round up."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot round non-finite entries")
    return np.floor(x + 0.5).astype(int)


def mibi_bp(p: RecoveryProblem) -> RecoveryReport:
    """Mirrored binary basis pursuit: run both programs, keep the candidate
    closest to its own integer rounding (ties, to within MIBI_TIE_TOL, go to
    the plain branch)."""
    if p.eta is not None:
        raise ValueError("mibi_bp is noiseless")
    plain = _bp_lp(p, mirror=False)
    mirrored = _bp_lp(p, mirror=True)
    if plain.x_hat is None and mirrored.x_hat is None:
        return RecoveryReport(None, "mibi_bp", np.nan, "infeasible")

    def gap(r):
        return np.inf if r.x_hat is None else float(np.linalg.norm(round_to_binary(r.x_hat) - r.x_hat))

    best, branch = ((mirrored, "mirror") if gap(mirrored) < gap(plain) - MIBI_TIE_TOL
                    else (plain, "plain"))
    return RecoveryReport(best.x_hat, "mibi_bp", best.objective, "optimal", branch_chosen=branch)


def box_ls(p: RecoveryProblem, tol: float = 1e-10, max_iter: int | None = None) -> RecoveryReport:
    """min ||Ax - b||_2  s.t.  x in [0,1]^N."""
    res = solve_box_ls(p.A.entries, p.b, 0.0, 1.0, tol=tol, max_iter=max_iter)
    status = "converged" if res.converged else "max_iter"
    return RecoveryReport(res.x, "box_ls", res.residual_norm, status)


def robust_box_bp(p: RecoveryProblem, tol: float = 1e-8, max_iter: int = 2000) -> RecoveryReport:
    """min ||x||_1  s.t.  ||Ax - b||_2 <= eta, x in [0,1]^N.

    Operator splitting: alternate a box-constrained quadratic step in x with a
    Euclidean-ball projection on the residual variable (scaled-dual ADMM).
    """
    if p.eta is None:
        raise ValueError("robust_box_bp requires a noise level eta")
    eta = float(p.eta)
    A, b = p.A.entries, p.b
    m, N = A.shape
    if eta == 0.0:
        # the ball degenerates to the equality constraint
        rep = _bp_lp(p, mirror=False)
        return RecoveryReport(rep.x_hat, "robust_box_bp", rep.objective, rep.solver_status)
    # infeasible iff eta < dist(b, A [0,1]^N)
    ls = solve_box_ls(A, b, 0.0, 1.0)
    if ls.residual_norm > eta + 1e-7:
        return RecoveryReport(None, "robust_box_bp", np.nan, "infeasible")

    def proj_ball(z):
        nz = np.linalg.norm(z)
        return z if nz <= eta else z * (eta / nz)

    rho = 1.0
    x = ls.x.copy()
    z = proj_ball(A @ x - b)
    u = np.zeros(m)
    status = "max_iter"
    for _ in range(max_iter):
        sr = np.sqrt(rho)
        qp = solve_box_qp(sr * A, sr * (b + z - u), 0.0, 1.0,
                          linear=np.ones(N), tol=min(1e-10, tol), x0=x)
        x = qp.x
        z_old = z
        z = proj_ball(A @ x - b + u)
        u = u + (A @ x - b) - z
        r_primal = np.linalg.norm(A @ x - b - z)
        r_dual = rho * np.linalg.norm(A.T @ (z - z_old))
        if r_primal <= tol and r_dual <= tol:
            status = "optimal"
            break
    return RecoveryReport(x, "robust_box_bp", float(np.sum(x)), status)


def recovery_success(x_hat: np.ndarray | None, x0: BinarySignal | np.ndarray,
                     tol: float = DEFAULT_SUCCESS_TOL) -> bool:
    """Relative l2 criterion: ||x_hat - x0|| <= tol * max(1, ||x0||)."""
    if x_hat is None:
        return False
    x0d = x0.dense() if isinstance(x0, BinarySignal) else np.asarray(x0, dtype=float)
    if x_hat.size != x0d.size:
        raise ValueError("dimension mismatch between candidate and ground truth")
    return float(np.linalg.norm(x_hat - x0d)) <= tol * max(1.0, float(np.linalg.norm(x0d)))


def solve(program: str, p: RecoveryProblem) -> RecoveryReport:
    """Dispatch by program name (CLI and experiment harness entry point)."""
    try:
        fn = {
            "box_bp": box_bp,
            "box_bp_mirror": box_bp_mirror,
            "mibi_bp": mibi_bp,
            "robust_box_bp": robust_box_bp,
            "box_ls": box_ls,
        }[program]
    except KeyError:
        raise ValueError(f"unknown program {program!r}") from None
    return fn(p)
