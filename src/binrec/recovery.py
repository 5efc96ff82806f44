"""Recovery programs for binary signals on the box [0,1]^N.

On the nonnegative box, ||x||_1 = sum(x) and ||1-x||_1 = N - sum(x), so the
basis-pursuit programs and their mirrored variants are plain LPs.  The whole
artifact hinges on this reduction; it is applied here and nowhere else.

Under the paper's condition the answer is the only binary point that fits
b, so least squares can find it without an LP.  On a noiseless problem
(``eta`` None or 0) box-BP's LP first tries two binary candidates, each one
NNLS solve: the rounding of nnls(A, b) clipped to the box, and the mirror
of the rounding of nnls(A, A1 - b), for saturated signals.  A candidate x
that fits b is returned without the LP when ``analysis.check_kernel_cone``
proves it the LP's unique optimum: on the sign cone of x's support, x is
the only point of the box with Ax = b, the answer of both LPs and of
box-LS; with the sum row as well, x is box-BP's unique optimum (and 1 - x
plays that part for the mirror LP).  Otherwise HiGHS solves the LP.

So on a wide A (m < N) ``box_ls`` returns box-BP's rounded point when it
fits b and the same kernel-cone check proves it the only point of the box
that does, hence box-LS's unique minimizer, and runs BVLS only otherwise;
with m >= N or a noisy b BVLS runs directly.  When BVLS's point is a
vertex of the box, the kernel-cone check on that vertex's sign cone decides
whether box_ls returns it.  Every kernel-cone verdict, box-BP report and
binary candidate is computed once per ``RecoveryProblem`` and kept in its
memo, so box-BP's certification, box_ls's shortcut and its vertex rule
share each verdict.

The noisy program, ``robust_box_bp``, is box-constrained least squares
again: its Lagrangian adds lam*1.x to box-LS's objective.  The minimizer
x(lam) moves linearly in lam between changes of its active set, so a few
``optim.solve_box_qp`` solves find the piece of that path where the
residual crosses the noise ball, one linear solve on the piece's free
coordinates finds the crossing, and Lagrangian sufficiency proves how far
its point can lie from the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import nnls

from .analysis import CertificateResult, ConeSpec, check_kernel_cone
from .ensembles import BinarySignal, DenseMatrix
from .optim import TOL_FEAS, LpProblem, SolverFailure, solve_box_ls, solve_box_qp, solve_lp

DEFAULT_SUCCESS_TOL = 1e-4

# mibi_bp takes the mirror branch only when its distance to its own rounding
# is smaller than the plain branch's by more than this.  HiGHS returns
# vertices that are integral only to about 1e-9, so an exact comparison
# would break ties between two binary candidates at random.
MIBI_TIE_TOL = 1e-7

# how far above the optimum, relative to max(1, 1.x), an ``optimal``
# robust_box_bp objective may provably lie
ROBUST_GAP_TOL = 1e-6

# robust_box_bp's cap on box-QP probes after the lam = 0 solve
_MAX_PROBES = 100
# its piece step aims this far inside the ball, relative to eta, so that the
# rounding of Ax - b does not leave the step's point just outside; and it
# takes coordinates this close to a bound to sit on it, since L-BFGS-B's
# projected-gradient stop cannot tell them from the bound
_AIM = 1e-12
_BOUND_TOL = 1e-9


@dataclass
class RecoveryProblem:
    """One instance: A, b and the noise level eta of b.  robust_box_bp
    takes eta as its ball's radius, and the box-BP LPs and box_ls skip
    their certified shortcuts when eta > 0; the basis-pursuit programs'
    answers do not depend on it.  Treat it as immutable: the box-BP
    reports, binary candidates and kernel-cone verdicts computed on it are
    kept in one memo, so that every program run on the same problem
    computes each once.  b is stored as a vector of m finite entries."""

    A: DenseMatrix
    b: np.ndarray
    eta: float | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.A, np.ndarray):
            self.A = DenseMatrix(self.A)
        # a one-row measurement file loads as a 0-d array
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        if self.b.size != self.A.m:
            raise ValueError(f"measurement vector length {self.b.size} != m={self.A.m}")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("measurements must be finite")
        if self.eta is not None and not 0 <= self.eta < np.inf:
            raise ValueError("noise level eta must be finite and nonnegative")

    def _once(self, key, compute):
        """compute()'s value, computed the first time ``key`` is asked for
        on this problem and kept in its memo."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


@dataclass
class RecoveryReport:
    x_hat: np.ndarray | None
    program: str
    objective: float
    solver_status: str
    branch_chosen: str | None = None  # mibi_bp only
    # robust_box_bp only: a proven bound on how far the objective lies above
    # the optimum; None for the other programs, on robust_box_bp's LP path
    # (eta = 0) and where no bound was found
    optimality_gap: float | None = None


def _bp_lp(p: RecoveryProblem, mirror: bool) -> RecoveryReport:
    return p._once(("bp", mirror), lambda: _solve_bp_lp(p, mirror))


def _fits(p: RecoveryProblem, x: np.ndarray) -> bool:
    """Every row of Ax - b lies within TOL_FEAS * max(1, |b|_inf)."""
    tol = TOL_FEAS * max(1.0, float(np.max(np.abs(p.b))))
    return bool(np.max(np.abs(p.A.entries @ x - p.b)) <= tol)


def _candidate(p: RecoveryProblem, saturated: bool) -> np.ndarray | None:
    """A binary point from one NNLS solve, computed once per problem: the
    rounding of nnls(A, b) clipped to the box, or with ``saturated``
    1 - that rounding for nnls(A, A1 - b).  None when it does not fit b
    (``_fits``), or when NNLS hits its iteration cap."""
    def solve():
        A, b = p.A.entries, p.b
        try:
            z = nnls(A, A.sum(axis=1) - b if saturated else b)[0]
        except RuntimeError:
            return None
        # clip first: NNLS may overshoot 1, and a rounded 2 can fit b
        x = round_to_binary(np.clip(z, 0.0, 1.0)).astype(float)
        if saturated:
            x = 1.0 - x
        return x if _fits(p, x) else None

    return p._once(("candidate", saturated), solve)


def _cone(p: RecoveryProblem, K: np.ndarray, sum_nonpos: bool = False) -> CertificateResult | None:
    """``check_kernel_cone`` on the sign cone of K, computed once per
    problem; None when the check stops without a verdict."""
    def check():
        try:
            return check_kernel_cone(p.A, ConeSpec.sign_cone(p.A.N, K, sum_nonpos=sum_nonpos))
        except SolverFailure:
            return None

    return p._once(("cone", K.tobytes(), sum_nonpos), check)


def _cone_holds(p: RecoveryProblem, K: np.ndarray, sum_nonpos: bool = False) -> bool:
    cone = _cone(p, K, sum_nonpos)
    return cone is not None and cone.holds


def _certified(p: RecoveryProblem, mirror: bool) -> np.ndarray | None:
    """A binary candidate x certified the LP's unique optimum: ker(A) meets
    the sign cone of x's support trivially (x is the only point of the box
    with Ax = b), or that cone with the sum row (box-BP), or the sum-row
    cone of 1 - x's support (the mirror LP).  None when neither candidate
    is certified."""
    for saturated in (False, True):
        x = _candidate(p, saturated)
        if x is not None and (
                _cone_holds(p, np.flatnonzero(x))
                or _cone_holds(p, np.flatnonzero(1.0 - x if mirror else x), sum_nonpos=True)):
            return x
    return None


def _solve_bp_lp(p: RecoveryProblem, mirror: bool) -> RecoveryReport:
    A = p.A.entries
    N = A.shape[1]
    name = "box_bp_mirror" if mirror else "box_bp"
    x = None if p.eta else _certified(p, mirror)
    if x is None:
        c = -np.ones(N) if mirror else np.ones(N)
        sol = solve_lp(LpProblem(c=c, A_eq=A, b_eq=p.b, lower=np.zeros(N), upper=np.ones(N)))
        if sol.status != "optimal":
            return RecoveryReport(None, name, np.nan, sol.status)
        x = sol.x
    # report the l1 objective of the program itself
    obj = N - float(np.sum(x)) if mirror else float(np.sum(x))
    return RecoveryReport(x, name, obj, "optimal")


def box_bp(p: RecoveryProblem) -> RecoveryReport:
    """min ||x||_1  s.t.  Ax = b, x in [0,1]^N."""
    return _bp_lp(p, mirror=False)


def box_bp_mirror(p: RecoveryProblem) -> RecoveryReport:
    """min ||1-x||_1  s.t.  Ax = b, x in [0,1]^N."""
    return _bp_lp(p, mirror=True)


def round_to_binary(x: np.ndarray) -> np.ndarray:
    """Componentwise nearest integer; half-points round up."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot round non-finite entries")
    return np.floor(x + 0.5).astype(int)


def mibi_bp(p: RecoveryProblem) -> RecoveryReport:
    """Mirrored binary basis pursuit: keep whichever of box_bp's and
    box_bp_mirror's points is closest to its own integer rounding (ties, to
    within MIBI_TIE_TOL, go to the plain branch).

    The two LPs share one feasible set, so an infeasible plain LP settles
    the problem as ``infeasible`` without the mirror LP.  The mirror branch
    wins only by more than MIBI_TIE_TOL, so it cannot win against a plain
    point within MIBI_TIE_TOL of its rounding; the mirror LP is solved only
    when the plain point is farther than that."""

    def gap(r):
        return np.inf if r.x_hat is None else float(np.linalg.norm(round_to_binary(r.x_hat) - r.x_hat))

    plain = _bp_lp(p, mirror=False)
    if plain.x_hat is None:
        return RecoveryReport(None, "mibi_bp", np.nan, plain.solver_status)
    best, branch = plain, "plain"
    if gap(plain) > MIBI_TIE_TOL:
        mirrored = _bp_lp(p, mirror=True)
        if gap(mirrored) < gap(plain) - MIBI_TIE_TOL:
            best, branch = mirrored, "mirror"
    return RecoveryReport(best.x_hat, "mibi_bp", best.objective, "optimal", branch_chosen=branch)


def box_ls(p: RecoveryProblem) -> RecoveryReport:
    """min ||Ax - b||_2  s.t.  x in [0,1]^N, by ``solve_box_ls`` (BVLS) at
    its tolerance and iteration cap, unless box-BP's point certifies the
    answer first.

    When A is wide (m < N) and b is noiseless (``p.eta`` None or 0),
    box-BP's point (the problem's cached one) is rounded to a binary x.
    If x fits b, every row of Ax - b within TOL_FEAS * max(1, |b|_inf) as
    for box-BP's candidates, it attains the least residual to that
    tolerance.  If moreover ker(A) meets the cone of the box's feasible
    directions at the vertex x trivially (``check_kernel_cone`` on the sign
    cone of x's support, a verdict that box-BP's certification may already
    have cached), then x is the only point z of the box with Az = Ax.
    Every minimizer has the same Az, since the objective is strictly convex
    in Az, so x is the unique minimizer and is returned as ``converged``,
    with no solver run.  The shortcut is not tried with m >= N, where A
    generically has full column rank and BVLS finds the unique minimizer
    without an LP, nor on noisy b (``p.eta`` > 0), where Ax = b almost
    never has a point in the box and box-BP's LP would be infeasible or,
    rounded, no minimizer.  On a noiseless problem where box-BP has not
    run, the shortcut runs it: its NNLS candidates and, when neither is
    certified, its LP.

    Otherwise, or when a solver stops without a verdict, BVLS runs.  It is
    an active-set method and can land on a vertex of the box where the
    minimizers are not a single point, which would make box_ls look like
    it recovers binary signals that its program does not determine.  So
    when BVLS's point lies within TOL_FEAS of a vertex v, the problem's
    kernel-cone verdict on the sign cone of v's support decides what comes
    back.  If it holds, no feasible direction of the box at v lies in
    ker(A), so v is the only point z of the box with Az = Av, hence the
    unique minimizer, and v is returned.  If it fails, its witness w is
    such a direction (Aw = 0), and v + w/(2 max|w|) is returned: a
    minimizer too, in the box and 1/2 away from a bound in some coordinate,
    so off every vertex.  With no verdict BVLS's point is returned
    unchanged.  The objective and status are those of the returned point.
    """
    A = p.A.entries
    m, N = A.shape
    if m < N and not p.eta:
        try:
            bp = _bp_lp(p, mirror=False)
            if bp.x_hat is not None:
                x = round_to_binary(bp.x_hat).astype(float)
                if _fits(p, x) and _cone_holds(p, np.flatnonzero(x)):
                    return RecoveryReport(x, "box_ls", float(np.linalg.norm(A @ x - p.b)),
                                          "converged")
        except SolverFailure:
            pass
    res = solve_box_ls(A, p.b)
    v = np.round(res.x)
    if np.max(np.abs(res.x - v)) <= TOL_FEAS and (cone := _cone(p, np.flatnonzero(v))) is not None:
        x = v if cone.holds else v + cone.witness / (2.0 * np.max(np.abs(cone.witness)))
        res = replace(res, x=x, residual_norm=float(np.linalg.norm(A @ x - p.b)))
    return RecoveryReport(res.x, "box_ls", res.residual_norm, res.status)


def robust_box_bp(p: RecoveryProblem) -> RecoveryReport:
    """min ||x||_1  s.t.  ||Ax - b||_2 <= eta, x in [0,1]^N.

    A search for the Lagrange multiplier, the Pareto-curve view of SPGL1
    (van den Berg and Friedlander, SIAM J. Sci. Comput. 31(2), 2008).
    x(lam) minimizes 0.5*||Ax - b||^2 + lam*1.x over the box.  Its
    residual r(lam) = ||Ax(lam) - b|| is nondecreasing, from box-LS's at
    lam = 0 to ||b|| from lam = max(A^T b) on, where x(lam) = 0.  The path
    x(lam) is piecewise linear, so r(lam)^2 is piecewise quadratic and one
    linear solve finds where a piece crosses the ball.

    The lam = 0 solve (``solve_box_qp``) is the feasibility test.  Its
    point x is box-LS's minimizer only to the solver's precision, so
    r(0) > eta + 1e-7 is ``infeasible`` only when the Lagrangian bound
    below proves it at lam = 0.  Without that proof the search starts with
    no point known in the ball.  Then each step takes the
    coordinates of the last solve's point more than 1e-9 inside the box as
    the free set of its piece of the path, solves the free block for x(lam)
    along the whole piece and steps to the lam where the residual meets the
    ball, aimed a relative 1e-12 inside it (``_piece_root``).  The step's
    point is returned when Everett's bound below proves it.  Otherwise a
    probe, one ``solve_box_qp`` call warm-started from the last one's
    point, solves x(lam) at the step's lam if that lies strictly inside the
    bracket (the largest lam probed with r <= eta, the smallest with
    r > eta), else at the bracket's midpoint, and the next step starts from
    there.  eta = 0 goes to box-BP's LP, and ||b|| <= eta returns x = 0.

    The status comes from a proof, Everett's Lagrangian sufficiency (Oper.
    Res. 11(3), 1963).  For a point x of the box, r = ||Ax - b||, lam >= 0
    and g = A^T(Ax - b) + lam*1, the gradient there of
    0.5*||Ax - b||^2 + lam*1.x, let S = (eta^2 - r^2)/2 + g.x - sum(min(g, 0))
    (``_lagrangian_slack``).  By convexity every z in the box and the ball
    has lam*1.z >= lam*1.x - S.  So S < 0 at lam = 0 proves that no point
    of the box lies in the ball (``infeasible``), and for lam > 0 and
    r <= eta, 1.x lies at most gap = S/lam above the optimum; gap is the
    report's ``optimality_gap``.  ``optimal`` means gap <= ROBUST_GAP_TOL *
    max(1, 1.x) at the step's lam.  After _MAX_PROBES probes without a
    proof the status is ``max_iter``, with the bracket's feasible end and
    its gap (None at lam = 0), or with no point when no solve landed in
    the ball.  With r(0) in [eta*(1 - 1e-12), eta + 1e-7]
    there is no room to aim inside the ball, and the lam = 0 point comes
    back ``stalled``.
    """
    if p.eta is None:
        raise ValueError("robust_box_bp requires a noise level eta")
    eta = float(p.eta)
    A, b = p.A.entries, p.b
    N = A.shape[1]
    if eta == 0.0:
        # the ball degenerates to the equality constraint
        rep = _bp_lp(p, mirror=False)
        return RecoveryReport(rep.x_hat, "robust_box_bp", rep.objective, rep.solver_status)
    if np.linalg.norm(b) <= eta:
        return RecoveryReport(np.zeros(N), "robust_box_bp", 0.0, "optimal", optimality_gap=0.0)
    # r(0) is box-LS's residual: infeasible iff eta < dist(b, A [0,1]^N)
    res = solve_box_qp(A, b)
    x, r = res.x, res.residual_norm
    if r > eta + 1e-7:
        if _lagrangian_slack(A, b, eta, 0.0, x)[1] < 0:
            return RecoveryReport(None, "robust_box_bp", np.nan, "infeasible")
    elif r >= eta * (1.0 - _AIM):
        # no room to aim inside the ball: the lam = 0 point is all there is
        return RecoveryReport(x, "robust_box_bp", float(np.sum(x)), "stalled")
    # r(hi) > eta, and r(lo) <= eta with x_lo = x(lo) once a point in the
    # ball is known; x(lam) = 0 from max(A^T b) on
    lo, hi, x_lo = 0.0, float(np.max(A.T @ b)), x if r <= eta else None
    for _ in range(_MAX_PROBES):
        step = _piece_root(A, b, eta, x)
        if step is not None:
            lam, xc = step
            rc, slack = _lagrangian_slack(A, b, eta, lam, xc)
            if rc <= eta and slack / lam <= ROBUST_GAP_TOL * max(1.0, np.sum(xc)):
                return RecoveryReport(xc, "robust_box_bp", float(np.sum(xc)), "optimal",
                                      optimality_gap=slack / lam)
        if step is None or not lo < lam < hi:
            lam = (lo + hi) / 2
        res = solve_box_qp(A, b, c=lam, x0=x)
        x = res.x
        if res.residual_norm <= eta:
            lo, x_lo = lam, x
        else:
            hi = lam
    if x_lo is None:
        return RecoveryReport(None, "robust_box_bp", np.nan, "max_iter")
    gap = _lagrangian_slack(A, b, eta, lo, x_lo)[1] / lo if lo else None
    return RecoveryReport(x_lo, "robust_box_bp", float(np.sum(x_lo)), "max_iter",
                          optimality_gap=gap)


def _lagrangian_slack(A, b, eta, lam, x):
    """(r, S) at a point x of the box and lam >= 0: its residual
    r = ||Ax - b|| and the slack S of ``robust_box_bp``'s Lagrangian bound,
    whose sign at lam = 0 is the infeasibility proof and whose S/lam is
    Everett's optimality gap."""
    res = A @ x - b
    r = float(np.linalg.norm(res))
    g = A.T @ res + lam
    return r, float((eta * eta - r * r) / 2 + g @ x - np.minimum(g, 0).sum())


def _piece_root(A, b, eta, x):
    """(lam, x(lam)) where the path's piece through x meets the ball, or
    None when it does not.  On the piece, the coordinates of x more than
    _BOUND_TOL inside the box (F) are free and the others sit on their
    bounds (B).  With B snapped onto them and r = Ax - b, the free block's
    normal equations give x_F(lam) = x_F + e + lam*d, the solution nearest
    x_F of A_F^T A_F (x_F(lam) - x_F) = -A_F^T r - lam*1 (the least-norm
    one, should A_F be singular), so ||Ax(lam) - b||^2 is a quadratic in
    lam.  Its positive root at eta*(1 - _AIM) is returned, with x(lam)
    clipped to the box."""
    free = (x > _BOUND_TOL) & (x < 1.0 - _BOUND_TOL)
    if not free.any():
        return None
    xc = np.where(free, x, np.round(x))
    r = A @ xc - b
    Af = A[:, free]
    e, d = np.linalg.lstsq(Af.T @ Af, -np.column_stack([Af.T @ r, np.ones(Af.shape[1])]),
                           rcond=None)[0].T
    rp, v = r + Af @ e, Af @ d
    a, beta, c = v @ v, rp @ v, rp @ rp - (eta * (1.0 - _AIM)) ** 2
    if not (a > 0.0 and c < 0.0):
        return None
    lam = float((np.sqrt(beta * beta - a * c) - beta) / a)
    xc[free] = np.clip(x[free] + e + lam * d, 0.0, 1.0)
    return lam, xc


def check_success_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` lies in (0, inf)."""
    if not 0 < tol < np.inf:
        raise ValueError(f"success tolerance must be positive and finite, not {tol}")


def recovery_success(x_hat: np.ndarray | None, x0: BinarySignal | np.ndarray,
                     tol: float = DEFAULT_SUCCESS_TOL) -> bool:
    """Relative l2 criterion: ||x_hat - x0|| <= tol * max(1, ||x0||), for
    a tol in (0, inf)."""
    check_success_tol(tol)
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
