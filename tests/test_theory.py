import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from binrec.analysis import (build_dual_certificate, certificate_threshold,
                             verify_certificate)
from binrec.ensembles import EnsembleConfig, gen_matrix, gen_sparse_binary
from binrec.theory import (TheoryParams, biased_sample_bound, cert_failure_prob,
                           cert_norm_bound, cert_success_rates, delta_bin,
                           face_survival_prob, largerN2_success_prob,
                           mibi_sample_bound, noise_error_bound)


def _quad_low(tau):
    return quad(lambda u: (u - tau) ** 2 * norm.pdf(u), -np.inf, tau,
                epsabs=1e-12, epsrel=1e-12)[0]


def _quad_high(tau):
    return quad(lambda u: (u - tau) ** 2 * norm.pdf(u), tau, np.inf,
                epsabs=1e-12, epsrel=1e-12)[0]


def test_closed_forms_match_quadrature_on_grid():
    from binrec.theory import _tail_high, _tail_low
    for tau in np.linspace(0.0, 6.0, 50):
        assert abs(_tail_low(tau) - _quad_low(tau)) <= 1e-8
        assert abs(_tail_high(tau) - _quad_high(tau)) <= 1e-8


def test_tails_equal_the_scipy_stats_expressions():
    from binrec.theory import _tail_high, _tail_low
    for tau in np.linspace(0.0, 20.0, 401):
        assert _tail_low(tau) == (1.0 + tau * tau) * norm.cdf(tau) + tau * norm.pdf(tau)
        assert _tail_high(tau) == (1.0 + tau * tau) * norm.cdf(-tau) - tau * norm.pdf(tau)


def _on_scipy_stats(monkeypatch):
    """Point theory's Gaussian functions at scipy.stats.norm."""
    import binrec.theory as theory
    monkeypatch.setattr(theory, "ndtr", norm.cdf)
    monkeypatch.setattr(theory, "log_ndtr", norm.logcdf)
    monkeypatch.setattr(theory, "ndtri", lambda q: -norm.isf(q))
    monkeypatch.setattr(theory, "_norm_pdf", norm.pdf)


def test_delta_bin_equals_its_scipy_stats_evaluation(monkeypatch):
    grid = [(k, N) for N in (10, 100, 500) for k in range(0, N + 1, max(1, N // 10))]
    ours = [delta_bin(k, N) for k, N in grid]
    _on_scipy_stats(monkeypatch)
    assert ours == [delta_bin(k, N) for k, N in grid]


@pytest.mark.parametrize("base_dist", ["rademacher_scaled", "uniform_bounded"])
def test_cert_success_rates_equal_their_scipy_stats_evaluation(monkeypatch, base_dist):
    # criterion 7's parameters: N=200, k=10, mu=sigma=Lambda=0.5, eps=0.01
    p = TheoryParams(N=200, k=10, m=150, mu=0.5, sigma=0.5, lambda_bound=0.5, eps=0.01)
    ms = (2, 150, 2_000, 3_062, 97_213, 97_214)
    ours = [cert_success_rates(replace(p, m=m), base_dist) for m in ms]
    _on_scipy_stats(monkeypatch)
    assert ours == [cert_success_rates(replace(p, m=m), base_dist) for m in ms]
    if base_dist == "rademacher_scaled":
        assert ours[0][2] == 97_214


def test_delta_bin_special_values():
    assert delta_bin(500, 500) == pytest.approx(250.0, abs=1e-6)
    assert delta_bin(250, 500) == pytest.approx(250.0, abs=1e-6)
    assert delta_bin(0, 500) <= 1e-6
    with pytest.raises(ValueError):
        delta_bin(-1, 10)
    with pytest.raises(ValueError):
        delta_bin(11, 10)


def test_delta_bin_is_half_n_for_k_above_half():
    # the objective's slope at tau = 0 is 2 phi(0) (2k - N): for k > N/2
    # its minimum is the endpoint value N/2, exactly
    for N in (10, 100, 200, 500):
        assert all(delta_bin(k, N) == N / 2 for k in range(N // 2 + 1, N + 1)), N
        # at k = N/2 the slope vanishes, and Brent's value may round a few
        # ulps below N/2
        assert delta_bin(N // 2, N) == pytest.approx(N / 2, rel=0, abs=1e-12)


def test_delta_bin_matches_quadrature_minimization():
    # independent evaluation: minimize the quadrature objective on a fine grid
    N = 100
    for k in (5, 70):
        taus = np.linspace(0, 8, 321)
        vals = [k * _quad_low(t) + (N - k) * _quad_high(t) for t in taus]
        assert delta_bin(k, N) <= min(vals) + 1e-6
        assert delta_bin(k, N) >= min(vals) - 0.1  # grid resolution slack


def test_delta_bin_monotone_in_k():
    vals = [delta_bin(k, 200) for k in range(0, 201, 10)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_face_survival_exact_rational():
    # the correctly rounded value of the exact rational, on both sides of
    # i = j/2 where the law sums its shorter tail
    for j in range(1, 61):
        for i in range(1, j + 1):
            exact = Fraction(sum(math.comb(j - 1, l) for l in range(i)), 2 ** (j - 1))
            assert face_survival_prob(i, j) == float(exact)


def test_face_survival_far_tail_is_subnormal_not_zero():
    # P_{2,1076} = 1076 / 2^1075 lies below the smallest normal double, where
    # scipy.stats.binom.cdf returns 0
    exact = float(Fraction(1076, 2 ** 1075))
    assert exact == 2.66e-321
    assert face_survival_prob(2, 1076) == exact > 0.0


def test_face_survival_conventions_and_errors():
    assert face_survival_prob(0, 7) == 0.0
    assert face_survival_prob(1, 10) == pytest.approx(2.0 ** -9)
    assert face_survival_prob(10, 10) == 1.0
    with pytest.raises(ValueError):
        face_survival_prob(5, 4)


def test_face_survival_half_bound_past_half_measurements():
    for N in range(4, 201, 2):
        m = N // 2 + 1
        assert face_survival_prob(N - m, N) <= 0.5 + 1e-12


def test_mibi_bound():
    val = mibi_sample_bound(250, 500, 0.05)
    assert val == pytest.approx(250.0 + math.sqrt(8 * math.log(80) * 500), abs=1e-6)
    assert mibi_sample_bound(10, 100, 0.05) == pytest.approx(
        mibi_sample_bound(90, 100, 0.05))
    # k = 0 branch collapses to the concentration term alone
    assert mibi_sample_bound(0, 100, 0.5) == pytest.approx(
        math.sqrt(8 * math.log(8) * 100), abs=1e-4)
    with pytest.raises(ValueError):
        mibi_sample_bound(10, 100, 1.5)


def test_biased_bound_properties():
    p = TheoryParams(N=100, k=10, m=50)
    q = TheoryParams(N=100, k=90, m=50)
    assert biased_sample_bound(p) == pytest.approx(biased_sample_bound(q))
    doubled = TheoryParams(N=100, k=10, m=50, C=2.0)
    assert biased_sample_bound(doubled) == pytest.approx(2 * biased_sample_bound(p))
    # Lambda = sigma: Lambda^4/sigma^4 = 1, so the second argument is min(k, N-k)
    r = TheoryParams(N=100, k=30, m=50, mu=0.5, sigma=0.5, lambda_bound=0.5)
    expected = max(0.25 / 0.25, 30.0) * math.log(100 / 0.05)
    assert biased_sample_bound(r) == pytest.approx(expected)
    with pytest.raises(ValueError):
        biased_sample_bound(TheoryParams(N=100, k=10, m=50, mu=0.0))


def test_cert_failure_prob_properties():
    base = dict(N=200, k=10, mu=0.5, sigma=0.5, lambda_bound=0.5)
    vals = [cert_failure_prob(TheoryParams(m=m, **base)) for m in (10, 100, 1000, 10000)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)
    small = cert_failure_prob(TheoryParams(m=500, N=200, k=10, mu=0.5,
                                           sigma=0.5, lambda_bound=0.5))
    big = cert_failure_prob(TheoryParams(m=500, N=200, k=10, mu=0.5,
                                         sigma=0.5, lambda_bound=0.7))
    assert big >= small
    for variant in ("off_support", "on_support"):
        v = cert_failure_prob(TheoryParams(m=500, **base), variant)
        assert 0.0 <= v <= 1.0
    with pytest.raises(ValueError):
        cert_failure_prob(TheoryParams(m=500, **base), "sideways")
    with pytest.raises(ValueError):
        cert_failure_prob(TheoryParams(N=10, k=0, m=5))


def test_cert_norm_bound_readings():
    stated, proof = cert_norm_bound(100, 4, -0.5, 0.5, 0.8)
    assert stated == pytest.approx(100 * (0.25 + 0.25 * (4 + 0.25)))
    assert proof == pytest.approx(100 * (0.25 + 0.64 * (4 + 0.25)))


CERT_BASE = dict(N=200, k=10, mu=0.5, sigma=0.5, lambda_bound=0.5)


def test_cert_success_rates_monotone_in_m():
    ms = np.unique(np.geomspace(2, 10 ** 6, 120).astype(int))
    rates = [cert_success_rates(TheoryParams(m=int(m), **CERT_BASE))[:2] for m in ms]
    verify = [v for v, _ in rates]
    assert all(0.0 <= r <= 1.0 for pair in rates for r in pair)
    assert all(b >= a for a, b in zip(verify, verify[1:]))
    # the norm bound's gap over the mean, k + m/k in units of sigma^2, is
    # smallest relative to the sqrt(m) spread at m = k^2; the rate rises after
    norm_rates = [n for m, (_, n) in zip(ms, rates) if m >= CERT_BASE["k"] ** 2]
    assert all(b >= a for a, b in zip(norm_rates, norm_rates[1:]))
    assert verify[0] < 0.01 and verify[-1] > 0.999 and norm_rates[-1] > 0.999


@pytest.mark.parametrize("params, base_dist", [
    (dict(CERT_BASE, eps=0.01), "rademacher_scaled"),  # norm half sets m*
    (dict(CERT_BASE, eps=0.3), "rademacher_scaled"),   # norm rate dips below 0.7 near k^2
    (dict(CERT_BASE, eps=0.1), "uniform_bounded"),
    (dict(N=20, k=2, eps=0.1), "rademacher_scaled"),  # verify half sets m*
])
def test_cert_required_m_is_smallest_from_which_on(params, base_dist):
    target = 1.0 - params["eps"]

    def both(m):
        v, n, _ = cert_success_rates(TheoryParams(m=int(m), **params), base_dist)
        return v >= target and n >= target

    m_star = cert_success_rates(TheoryParams(m=1, **params), base_dist)[2]
    assert m_star >= 2
    # the same m* whatever m the parameters carry
    assert cert_success_rates(TheoryParams(m=m_star, **params), base_dist)[2] == m_star
    above = np.unique(np.concatenate([np.arange(m_star, m_star + 20),
                                      np.geomspace(m_star, 100 * m_star, 60).astype(int)]))
    assert all(both(m) for m in above)
    assert m_star == 2 or not both(m_star - 1)


def test_cert_required_m_desk_values():
    # N=200, k=10, mu=sigma=0.5: the verify half reaches 0.9 between
    # m = 2,100 and 2,200, the norm half near 2.9e4, both reach 0.99 at 97,214
    _, _, m90 = cert_success_rates(TheoryParams(m=150, eps=0.1, **CERT_BASE))
    _, _, m99 = cert_success_rates(TheoryParams(m=150, eps=0.01, **CERT_BASE))
    assert cert_success_rates(TheoryParams(m=2100, **CERT_BASE))[0] < 0.9
    assert cert_success_rates(TheoryParams(m=2200, **CERT_BASE))[0] >= 0.9
    assert 28_000 <= m90 <= 30_000
    assert m99 == 97_214


def test_cert_success_rates_domain_errors():
    p = TheoryParams(m=500, **CERT_BASE)
    with pytest.raises(ValueError):
        cert_success_rates(p, "sideways")
    with pytest.raises(ValueError):
        cert_success_rates(TheoryParams(N=10, k=0, m=5))
    with pytest.raises(ValueError):
        cert_success_rates(TheoryParams(N=10, k=2, m=0))
    with pytest.raises(ValueError):
        cert_success_rates(TheoryParams(N=10, k=2, m=5, mu=0.0))
    with pytest.raises(ValueError):
        cert_success_rates(TheoryParams(N=10, k=2, m=5, sigma=0.0))


def test_cert_success_rates_match_monte_carlo():
    # m = 2000 is mid-transition for the verify half (predicted 0.85), so a
    # wrong mean or spread in the prediction moves it far
    m, trials = 2000, 100
    p = TheoryParams(m=m, **CERT_BASE)
    pred_verify, pred_norm, _ = cert_success_rates(p)
    rho = -p.sigma ** 2 / (4.0 * p.mu)
    bound, _ = cert_norm_bound(m, p.k, rho, p.sigma, p.lambda_bound)
    t_thr = certificate_threshold(m, p.sigma, "lemma")
    verified = within = 0
    for t in range(trials):
        A = gen_matrix(EnsembleConfig(kind="biased", m=m, N=p.N, mu=p.mu,
                                      sigma=p.sigma, lambda_bound=p.lambda_bound,
                                      seed=170_000 + t))
        J = gen_sparse_binary(p.N, p.k, seed=180_000 + t).support
        nu = build_dual_certificate(A.entries - p.mu, p.mu, p.sigma, J)
        verified += verify_certificate(A.entries, -nu, J, t_thr)[0]
        within += float(nu @ nu) <= bound
    # four binomial standard deviations of a 100-draw rate
    for observed, predicted in ((verified, pred_verify), (within, pred_norm)):
        tol = 4.0 * math.sqrt(predicted * (1.0 - predicted) / trials)
        assert abs(observed / trials - predicted) <= tol


def test_noise_error_bound_properties():
    p = TheoryParams(N=200, k=10, m=100)
    p4 = TheoryParams(N=200, k=10, m=400)
    assert noise_error_bound(p4) == pytest.approx(noise_error_bound(p) / 2.0)
    mirror = TheoryParams(N=200, k=190, m=100)
    assert noise_error_bound(mirror) == pytest.approx(noise_error_bound(p))
    with pytest.raises(ValueError):
        noise_error_bound(TheoryParams(N=200, k=10, m=100, mu=0.0))


def test_largern2_success_prob():
    # m = N: the empty-sum convention gives survival probability exactly 1
    assert largerN2_success_prob(100, 100, "density") == 1.0
    assert largerN2_success_prob(100, 100, "rademacher") == pytest.approx(1.0 - 2.0 ** -50)
    assert largerN2_success_prob(100, 51, "density") >= 0.5
    expected = 1.0 - face_survival_prob(10, 100)
    assert largerN2_success_prob(100, 90, "density") == pytest.approx(expected)
    with pytest.raises(ValueError):
        largerN2_success_prob(100, 50)
    with pytest.raises(ValueError):
        largerN2_success_prob(100, 90, "sideways")


def test_theory_params_validation():
    with pytest.raises(ValueError):
        TheoryParams(N=10, k=11, m=5)
    with pytest.raises(ValueError):
        TheoryParams(N=10, k=5, m=5, eps=0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60))
def test_face_survival_in_unit_interval(i, j):
    if i > j:
        i, j = j, i
    assert 0.0 <= face_survival_prob(i, j) <= 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 50), st.integers(50, 120))
def test_sample_bounds_nonnegative_and_grow_with_N(k, N):
    b1 = mibi_sample_bound(k, N, 0.05)
    b2 = mibi_sample_bound(k, 2 * N, 0.05)
    assert 0 <= b1 <= b2 + 1e-9
