"""Closed-form probability and sample-complexity formulas.

The Gaussian sample-complexity curve is evaluated through the closed forms
L(tau) = (1+tau^2) Phi(tau) + tau phi(tau) and
U(tau) = (1+tau^2) Phi(-tau) - tau phi(tau)
of the two truncated second moments; the tests validate these against
adaptive quadrature before anything else relies on them.

The Gaussian functions are scipy.special's ufuncs (``ndtr``, ``log_ndtr``,
``ndtri``), written in the forms ``scipy.stats.norm`` evaluates, so every
value equals the ``norm`` expression bit for bit; scipy.optimize loads
scipy.special already, while importing scipy.stats would add about 0.7 s
and 22 MiB to every cold start (shared 2-core x86-64 machine).  The
face-survival law is an exact sum of binomial coefficients in Python
integers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import log_ndtr, ndtr, ndtri

from .analysis import certificate_offset, certificate_threshold


@dataclass
class TheoryParams:
    N: int
    k: int
    m: int
    mu: float = 0.5
    sigma: float = 0.5
    lambda_bound: float = 0.5
    eps: float = 0.05
    C: float = 1.0  # explicit stand-in for the unspecified "up to constant" factors

    def __post_init__(self):
        if not 0 <= self.k <= self.N:
            raise ValueError(f"k={self.k} must lie in [0, N={self.N}]")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0,1)")


def _norm_pdf(t: float) -> float:
    # scipy.stats.norm.pdf's own form; math.exp can differ in the last bit
    return np.exp(-t ** 2 / 2.0) / np.sqrt(2 * np.pi)


def _tail_low(tau: float) -> float:
    """integral over u < tau of (u-tau)^2 phi(u) du."""
    return (1.0 + tau * tau) * ndtr(tau) + tau * _norm_pdf(tau)


def _tail_high(tau: float) -> float:
    """integral over u > tau of (u-tau)^2 phi(u) du."""
    return (1.0 + tau * tau) * ndtr(-tau) - tau * _norm_pdf(tau)


def delta_bin(k: float, N: float) -> float:
    """Gaussian sample-complexity curve for box-constrained basis pursuit at
    sparsity k: inf over tau >= 0 of k*L(tau) + (N-k)*U(tau).

    L and U are truncated second moments, convex in tau, so one bounded
    Brent search over [0, 20] finds the minimum.  Its slope at tau = 0 is
    2 phi(0) (2k - N), so for k > N/2 the minimum is the endpoint value
    N/2, which bounded Brent never evaluates: the result is the smaller of
    Brent's value and the objective at 0."""
    if not 0 <= k <= N:
        raise ValueError(f"k={k} must lie in [0, N={N}]")
    if N == 0:
        return 0.0

    def objective(tau):
        return k * _tail_low(tau) + (N - k) * _tail_high(tau)

    res = minimize_scalar(objective, bounds=(0.0, 20.0), method="bounded", options={"xatol": 1e-10})
    return min(res.fun, objective(0.0))


def _binomial_head(n: int, r: int) -> int:
    """sum over l < r of binom(n, l), in Python integers."""
    total, c = 0, 1
    for l in range(r):
        total += c
        c = c * (n - l) // (l + 1)
    return total


def face_survival_prob(i: int, j: int) -> float:
    """P_ij = 2^(1-j) * sum over l < i of binom(j-1, l), the lower tail of a
    Binomial(j-1, 1/2) at i-1.  The sum is exact in Python integers, over
    the shorter tail (the upper one by symmetry, subtracted from 2^(j-1)),
    and the one division rounds correctly, subnormal far tails included:
    O(j min(i, j-i)) bit operations.  By convention P_0j = 0 (empty sum)."""
    i, j = operator.index(i), operator.index(j)
    if i == 0:
        return 0.0
    if not 1 <= i <= j:
        raise ValueError(f"need 1 <= i <= j, got i={i}, j={j}")
    n = j - 1
    if i <= j - i:
        head = _binomial_head(n, i)
    else:  # sum over l >= i of binom(n, l) = sum over l < j-i of binom(n, l)
        head = 2 ** n - _binomial_head(n, j - i)
    return head / 2 ** n


def mibi_sample_bound(k: int, N: int, eps: float) -> float:
    """Sufficient Gaussian measurements for the mirrored algorithm:
    min(delta_bin(k), delta_bin(N-k)) + sqrt(8 log(4/eps) N)."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    return min(delta_bin(k, N), delta_bin(N - k, N)) + math.sqrt(8.0 * math.log(4.0 / eps) * N)


def biased_sample_bound(p: TheoryParams) -> float:
    """C * max(Lambda^2/mu^2, min(k, N-k) * Lambda^4/sigma^4) * log(N/eps)."""
    if p.mu <= 0:
        raise ValueError("the biased bound is vacuous for mu = 0")
    lam2 = p.lambda_bound ** 2
    first = lam2 / p.mu ** 2
    second = min(p.k, p.N - p.k) * lam2 ** 2 / p.sigma ** 4
    return p.C * max(first, second) * math.log(p.N / p.eps)


def cert_failure_prob(p: TheoryParams, variant: str = "combined") -> float:
    """Hoeffding failure-probability expressions for the explicit dual
    certificate; "combined" is the final union bound, the off/on-support
    variants are the two intermediate per-case bounds (with the certificate
    offset rho^2 mu^2 = sigma^4/64 already substituted)."""
    if p.k < 1 or p.m < 1:
        raise ValueError("need |J| >= 1 and m >= 1")
    m, k, N = p.m, p.k, p.N
    mu2, s4, lam = p.mu ** 2, p.sigma ** 4, p.lambda_bound
    lam2, lam4 = lam ** 2, lam ** 4
    # (union-bound count, mean-term constant, fluctuation-term constant)
    try:
        count, c_mu, c_s = {"combined": (N, 32.0, 2048.0),
                            "off_support": (N - k, 32.0, 2048.0),
                            "on_support": (k, 2.0, 128.0)}[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None
    val = count * (math.exp(-m * mu2 / (c_mu * lam2))
                   + math.exp(-m * s4 / (c_s * k * lam4))
                   + math.exp(-m * m * s4 / (c_s * k * lam4)))
    return min(1.0, max(0.0, val))


def cert_norm_bound(m: int, k: int, rho: float, sigma: float, lambda_bound: float):
    """Both readings of the certificate-norm bound: the stated one with
    sigma^2 and the proof's conclusion with Lambda^2 in its place.
    Returned as bounds on ||nu||^2."""
    if k < 1:
        raise ValueError("need |J| >= 1")
    stated = m * (rho ** 2 + sigma ** 2 * (k + 1.0 / k))
    proof = m * (rho ** 2 + lambda_bound ** 2 * (k + 1.0 / k))
    return stated, proof


def cert_success_rates(p: TheoryParams,
                       base_dist: str = "rademacher_scaled") -> tuple[float, float, int]:
    """Predicted success rates of the explicit dual certificate
    nu = rho 1 + D e - mean(D e) 1, rho = -sigma^2/(4 mu), on a biased
    matrix mu 1 + D with a |J| = k support, and the measurement count at
    which both reach 1 - eps.  Returns (verify_rate, norm_rate, required_m).

    verify_rate: probability that -nu verifies at the lemma threshold
    t = m sigma^2/36, approximated as Phi(z_off)^(N-k) Phi(z_on)^k.  Off the
    support the margin has mean m sigma^2/4 - t and variance
    sigma^2 E||nu||^2; on it, mean (m-1) sigma^2 - m sigma^2/4 - t and
    variance m sigma^2 (rho^2 + (k-1) sigma^2 + (kappa-1) sigma^2), with
    kappa = E D^4 / sigma^4 of the base distribution (1 for Rademacher,
    9/5 for uniform).
    norm_rate: probability that ||nu||^2 meets the stated cert_norm_bound,
    in the normal approximation.  E||nu||^2 = m rho^2 + (m-1) k sigma^2,
    which lies k sigma^2 + m sigma^2/k below the bound, and
    Var ||nu||^2 = sigma^4 (m-1)/m (c m + k (3-kappa)), c = 2k^2 - 3k + k kappa,
    is the exact variance of the centred sum of squares of the i.i.d. row
    sums of D e.
    required_m: the smallest m >= 2 from which on both predicted rates stay
    at or above 1 - eps.  The verify rate increases in m from m = 2 on (at
    m = 1 the certificate is the constant rho and the approximation does not
    apply).  The norm rate first falls, bottoming out near m = k^2, then
    rises; the m where it stays above 1 - eps is the largest root of a cubic.
    """
    kappa = {"rademacher_scaled": 1.0, "uniform_bounded": 9.0 / 5.0}.get(base_dist)
    if kappa is None:
        raise ValueError(f"unknown base distribution {base_dist!r}")
    if p.k < 1 or p.m < 1:
        raise ValueError("need |J| >= 1 and m >= 1")
    if p.mu <= 0 or p.sigma <= 0:
        raise ValueError("need mu > 0 and sigma > 0")
    N, k, s2 = p.N, p.k, p.sigma ** 2
    rho = certificate_offset(p.mu, p.sigma)
    c, d = 2.0 * k * k - 3.0 * k + k * kappa, k * (3.0 - kappa)

    def rates(m):
        t = certificate_threshold(m, p.sigma, "lemma")
        z_off = (m * s2 / 4.0 - t) / math.sqrt(s2 * (m * rho ** 2 + (m - 1) * k * s2))
        z_on = (((m - 1) - m / 4.0) * s2 - t) / math.sqrt(
            m * s2 * (rho ** 2 + (k - 2.0 + kappa) * s2))
        verify = math.exp((N - k) * log_ndtr(z_off) + k * log_ndtr(z_on))
        var = (m - 1) / m * (c * m + d)
        norm_rate = 1.0 if var <= 0 else float(ndtr((k + m / k) / math.sqrt(var)))
        return verify, norm_rate

    target = 1.0 - p.eps
    lo, hi = 1, 2  # verify rate below target at lo (or lo = 1), at or above at hi
    while rates(hi)[0] < target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if rates(mid)[0] >= target else (mid, hi)
    m_norm = 1
    z = -ndtri(p.eps)
    if z > 0:
        # m (k + m/k)^2 - z^2 (m-1)(c m + d) >= 0, i.e. gap >= z * sd
        roots = np.roots([1.0 / k ** 2, 2.0 - z * z * c,
                          k * k - z * z * (d - c), z * z * d])
        largest = roots.real[roots.imag == 0].max()  # a real cubic has a real root
        if largest > 1:
            m_norm = math.ceil(largest)
            if rates(m_norm)[1] < target:  # rounding at an exact root
                m_norm += 1
    return (*rates(p.m), max(hi, m_norm))


def noise_error_bound(p: TheoryParams) -> float:
    """Multiplier on the noise level in the least-squares error bound:
    sqrt(9 (16 sigma^2/mu^2 + min(k, N-k)) / (m sigma^2))."""
    if p.mu <= 0 or p.m < 1:
        raise ValueError("need mu > 0 and m >= 1")
    num = 9.0 * (16.0 * p.sigma ** 2 / p.mu ** 2 + min(p.k, p.N - p.k))
    return math.sqrt(num / (p.m * p.sigma ** 2))


def largerN2_success_prob(N: int, m: int, variant: str = "density") -> float:
    """Success probability lower bound for m > N/2: 1 - P_{N-m,N}, times
    (1 - 2^{-m/2}) for the Rademacher variant."""
    if not N / 2 < m <= N:
        raise ValueError(f"the bound requires N/2 < m <= N, got m={m}, N={N}")
    base = 1.0 - face_survival_prob(N - m, N)
    if variant == "density":
        return base
    if variant == "rademacher":
        return base * (1.0 - 2.0 ** (-m / 2.0))
    raise ValueError(f"unknown variant {variant!r}")
