"""LP-checkable geometric recovery conditions and explicit dual certificates.

The sign-pattern cones are scale-invariant, so strict inequalities and
nontriviality are encoded with unit margins / unit normalizations, which
turns every condition into a plain LP feasibility problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import DenseMatrix
from .optim import LpProblem, lp_feasible


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
        idx = np.asarray(K, dtype=int)
        if not np.array_equal(idx, K) or np.any((idx < 0) | (idx >= N)):
            raise ValueError(f"support indices must be integers in [0, {N})")
        signs = np.ones(N)
        signs[idx] = -1.0
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


def check_kernel_cone(A, cone: ConeSpec) -> CertificateResult:
    """Is ker(A) intersected with the cone trivial?

    Feasibility LP for a nonzero cone element: Aw = 0, the sign constraints,
    optionally sum(w) <= 0, and the normalization s.w = 1 with s the cone's
    signs, which on the cone is the sum of |w_i| (valid by scale
    invariance).  Verdict "fails" iff such a w exists; the {0} cone, with
    no nonzero sign, holds.
    """
    A = _entries(A)
    m, N = A.shape
    if cone.N != N:
        raise ValueError(f"cone dimension {cone.N} != matrix columns {N}")
    s = cone.signs
    if not s.any():
        return CertificateResult("holds")
    b_eq = np.zeros(m + 1)
    b_eq[-1] = 1.0
    A_ineq = np.ones((1, N)) if cone.sum_nonpos else None
    b_ineq = np.zeros(1) if cone.sum_nonpos else None
    feasible, w = lp_feasible(LpProblem(c=np.zeros(N), A_eq=np.vstack([A, s]), b_eq=b_eq,
                                        A_ineq=A_ineq, b_ineq=b_ineq,
                                        lower=np.minimum(s, 0.0), upper=np.maximum(s, 0.0)))
    if feasible:
        return CertificateResult("fails", witness=w, margin=float(np.linalg.norm(A @ w)))
    return CertificateResult("holds")


def check_hkplus_dual(A, K) -> CertificateResult:
    """Does some v satisfy (A^T v)_i < 0 on K and > 0 off K?

    Strictness is encoded as a unit margin, valid because the open cone is
    scale-invariant.  Equivalent to check_kernel_cone on the sign cone of K.
    """
    A = _entries(A)
    m, N = A.shape
    sign = ConeSpec.sign_cone(N, K).signs
    # rows: -sign_i * (A^T v)_i <= -1
    G = -(A * sign).T
    feasible, v = lp_feasible(LpProblem(c=np.zeros(m), A_ineq=G, b_ineq=-np.ones(N)))
    if not feasible:
        return CertificateResult("fails", witness=None, margin=0.0)
    margin = float(np.min(np.abs(A.T @ v)))
    return CertificateResult("holds", witness=v, margin=margin)


def certificate_offset(mu: float, sigma: float) -> float:
    """The explicit certificate's default offset rho = -sigma^2 / (4 mu)."""
    if mu <= 0:
        raise ValueError("rho is undefined for mu = 0; pass rho_override")
    return -sigma ** 2 / (4.0 * mu)


def build_dual_certificate(D, mu: float, sigma: float, J,
                           rho_override: float | None = None) -> np.ndarray:
    """The explicit candidate certificate rho*1 + D e - (1/m)<D e, 1> 1 with
    e the indicator of J and default rho = ``certificate_offset(mu, sigma)``."""
    D = _entries(D)
    m, N = D.shape
    J = np.asarray(sorted(J), dtype=int)
    if J.size == 0:
        raise ValueError("certificate support J must be nonempty")
    if J[0] < 0 or J[-1] >= N:
        raise ValueError("support indices out of range")
    rho = certificate_offset(mu, sigma) if rho_override is None else rho_override
    eps0 = np.zeros(N)
    eps0[J] = 1.0
    De = D @ eps0
    return rho * np.ones(m) + De - (np.sum(De) / m) * np.ones(m)


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

