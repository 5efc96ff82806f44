"""Geometric recovery conditions and explicit dual certificates.

Every condition asks whether ker(A) meets a sign-pattern cone in a nonzero
point.  The cones are scale-invariant, so nontriviality is a unit
normalization and strictness a unit margin, and Gordan's alternative turns
the question into one nonnegative least-squares problem: its solution gives
either a normalized cone element of the kernel or a dual vector that
separates the cone from it, and each verdict is checked against that object.
The problem goes to scipy's NNLS, and to its BVLS when NNLS's answer
verifies neither side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import lsq_linear, nnls

from .ensembles import DenseMatrix, _support
from .optim import TOL_FEAS, SolverFailure


@dataclass
class ConeSpec:
    """The cone of a sign vector s: w_i <= 0 where s_i = -1, w_i = 0 where
    s_i = 0 and w_i >= 0 where s_i = +1, plus an optional global
    sum(w) <= 0 row."""

    signs: np.ndarray
    sum_nonpos: bool = False

    def __post_init__(self):
        self.signs = np.asarray(self.signs, dtype=float)
        if self.signs.ndim != 1 or not np.all((self.signs == 0) | (np.abs(self.signs) == 1)):
            raise ValueError("signs must be a vector of -1, 0 and +1")

    @property
    def N(self) -> int:
        return self.signs.size

    @classmethod
    def sign_cone(cls, N: int, K, sum_nonpos: bool = False) -> "ConeSpec":
        """The cone of vectors nonpositive on K and nonnegative off K."""
        signs = np.ones(N)
        signs[_support(N, K)] = -1.0
        return cls(signs, sum_nonpos=sum_nonpos)

    def intersect(self, other: "ConeSpec") -> "ConeSpec":
        """Componentwise intersection; differing signs collapse to zero."""
        if self.N != other.N:
            raise ValueError("cone dimensions differ")
        return ConeSpec(np.where(self.signs == other.signs, self.signs, 0.0),
                        sum_nonpos=self.sum_nonpos or other.sum_nonpos)


@dataclass
class CertificateResult:
    verdict: str  # holds | fails
    witness: np.ndarray | None = None
    margin: float = 0.0

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _entries(A) -> np.ndarray:
    return A.entries if isinstance(A, DenseMatrix) else np.asarray(A, dtype=float)


def _gordan(A: np.ndarray, cone: ConeSpec):
    """Which side of Gordan's alternative holds for ker(A) and a cone with
    some nonzero sign, with the object that shows it: ("fails", w), a cone
    element with Aw = 0 and sum|w| = 1 to TOL_FEAS per row, or ("holds",
    y), the m kernel-row entries of a separating vector; without the sum
    row, s_i (A^T y)_i <= -1/2 wherever s_i != 0.

    With P the cone's nonzero signs, S = diag(s_P) and u = (v >= 0, plus a
    slack t >= 0 with the sum row), the cone elements w = S v in ker(A) with
    sum|w| = 1 solve Bu = e, where B = [[A_P S, 0], [s_P^T, 1], [1^T, 0]]
    (the middle row only with the sum row) and e is the last unit vector.
    One NNLS solve of min ||Bu - e|| decides (Lawson and Hanson, "Solving
    Least Squares Problems", ch. 23): its residual r = e - Bu* is 0 exactly
    when a solution exists, and otherwise satisfies B^T r <= 0 with
    r[-1] = ||r||^2 > 0, so y = r[:-1]/r[-1] has every v-column of
    B[:-1]^T y at most -1 and, with the sum row, a slack entry y_sum <= 0.
    Then for any cone element in ker(A), (1/2 - y_sum) sum(v) <= 0, so
    v = 0.  Both objects are checked after the solve, the holds bounds at
    -1/2 and y_sum < 1/2.  scipy's NNLS can misreport a degenerate system,
    so when neither object passes, or NNLS hits its iteration cap of ten
    times the column count, the same problem goes to BVLS
    (``lsq_linear(method="bvls")`` on u >= 0) and its answer is checked in
    the same way; SolverFailure is raised only when both fail.
    """
    P = np.flatnonzero(cone.signs)
    s = cone.signs[P]
    m, n, extra = A.shape[0], P.size, int(cone.sum_nonpos)
    B = np.zeros((m + extra + 1, n + extra))
    B[:m, :n] = A[:, P] * s
    if extra:
        B[m, :n] = s
        B[m, n] = 1.0
    B[-1, :n] = 1.0
    e = np.zeros(B.shape[0])
    e[-1] = 1.0

    def side(u):
        # the witness must lie in the cone whatever the solver returned
        u = np.maximum(u, 0.0)
        r = e - B @ u
        if np.max(np.abs(r)) <= TOL_FEAS:
            w = np.zeros(cone.N)
            w[P] = s * u[:n]
            return "fails", w
        if r[-1] > 0:
            y = r[:-1] / r[-1]
            if np.all(B[:-1, :n].T @ y <= -0.5) and (not extra or y[m] < 0.5):
                return "holds", y[:m]
        return None

    try:
        verdict = side(nnls(B, e, maxiter=10 * B.shape[1])[0])
    except RuntimeError:
        verdict = None
    if verdict is None:
        verdict = side(lsq_linear(B, e, bounds=(0.0, np.inf), method="bvls").x)
    if verdict is None:
        raise SolverFailure("NNLS and BVLS: neither side of Gordan's alternative verified")
    return verdict


def check_kernel_cone(A, cone: ConeSpec) -> CertificateResult:
    """Is ker(A) intersected with the cone trivial?

    Verdict "fails" iff a nonzero cone element w has Aw = 0 (and sum(w) <= 0
    with the sum row); its witness is normalized to sum|w| = 1, and its
    margin is ||Aw||.  Decided by one NNLS solve of Gordan's alternative
    (``_gordan``, with a BVLS solve when NNLS's answer verifies neither
    side), whose verdict is backed by a checked object either way and which
    raises SolverFailure otherwise.  The {0} cone, with no nonzero
    sign, holds.
    """
    A = _entries(A)
    N = A.shape[1]
    if cone.N != N:
        raise ValueError(f"cone dimension {cone.N} != matrix columns {N}")
    if not cone.signs.any():
        return CertificateResult("holds")
    verdict, w = _gordan(A, cone)
    if verdict == "fails":
        return CertificateResult("fails", witness=w, margin=float(np.linalg.norm(A @ w)))
    return CertificateResult("holds")


def check_hkplus_dual(A, K) -> CertificateResult:
    """Does some v satisfy (A^T v)_i < 0 on K and > 0 off K?

    The same alternative as check_kernel_cone on the sign cone of K: its
    holds side is such a v, returned scaled to the unit margin
    min_i s_i (A^T v)_i = 1 (s the sign, -1 on K), and ``margin`` is
    min_i |(A^T v)_i|.
    """
    A = _entries(A)
    cone = ConeSpec.sign_cone(A.shape[1], K)
    verdict, y = _gordan(A, cone)
    if verdict == "fails":
        return CertificateResult("fails", witness=None, margin=0.0)
    v = -y
    v /= np.min(cone.signs * (A.T @ v))
    return CertificateResult("holds", witness=v, margin=float(np.min(np.abs(A.T @ v))))


def certificate_offset(mu: float, sigma: float) -> float:
    """The explicit certificate's default offset rho = -sigma^2 / (4 mu)."""
    if mu <= 0:
        raise ValueError("rho is undefined for mu = 0; pass rho_override")
    return -sigma ** 2 / (4.0 * mu)


def build_dual_certificate(D, mu: float, sigma: float, J,
                           rho_override: float | None = None) -> np.ndarray:
    """The explicit candidate certificate rho*1 + D e - (1/m)<D e, 1> 1 with
    e the indicator of J and default rho = ``certificate_offset(mu, sigma)``.
    J must be nonempty, free of repeats and made of integers in [0, N): the
    norm bound is taken at |J|, and a repeated index would not count in e.
    D e is the sum of D's columns in J, read without the other N - |J|."""
    D = _entries(D)
    m, N = D.shape
    J = np.sort(_support(N, J))
    if J.size == 0:
        raise ValueError("certificate support J must be nonempty")
    if np.any(np.diff(J) == 0):
        raise ValueError(f"certificate support J repeats an index: {J.tolist()}")
    rho = certificate_offset(mu, sigma) if rho_override is None else rho_override
    De = D[:, J].sum(axis=1)
    return rho + De - np.sum(De) / m


def verify_certificate(A, nu: np.ndarray, K, t: float):
    """True iff (A^T nu)_i < -t on K and > t off K, i.e. A^T nu certifies
    recovery of the indicator of K.  Returns (flag, per-index margins), the
    margin at i being the slack sign_i * (A^T nu)_i - t with sign -1 on K."""
    if t < 0:
        raise ValueError("threshold t must be nonnegative")
    A = _entries(A)
    sign = ConeSpec.sign_cone(A.shape[1], K).signs
    margins = sign * (A.T @ np.asarray(nu, dtype=float)) - t
    return bool(np.all(margins > 0)), margins


def certificate_threshold(m: int, sigma: float, variant: str = "lemma") -> float:
    """Named thresholds for the certificate margin test."""
    table = {"lemma": 36.0, "proof_off_support": 32.0, "proof_on_support": 6.0}
    try:
        return m * sigma ** 2 / table[variant]
    except KeyError:
        raise ValueError(f"unknown threshold variant {variant!r}") from None

