import itertools
import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import binrec.analysis
from binrec.analysis import (ConeSpec, build_dual_certificate,
                             certificate_threshold, check_hkplus_dual,
                             check_kernel_cone, verify_certificate)
from binrec.ensembles import EnsembleConfig, gen_matrix
from binrec.optim import TOL_FEAS, SolverFailure
from binrec.recovery import RecoveryProblem, box_bp, recovery_success
from binrec.theory import face_survival_prob
from oracles import lp_kernel_cone_fails


def _random_AK(rng, max_m=8, max_N=12, kinds=("gaussian", "bernoulli")):
    m = int(rng.integers(1, max_m + 1))
    N = int(rng.integers(2, max_N + 1))
    if rng.choice(kinds) == "gaussian":
        A = rng.standard_normal((m, N))
    else:
        A = rng.integers(0, 2, size=(m, N)).astype(float)
    K = np.sort(rng.permutation(N)[: int(rng.integers(0, N + 1))])
    return A, K


def _random_cone_instance(rng, max_m=20, max_N=40):
    """A matrix from one of five ensembles: Gaussian, 0/1, {0, 2},
    1 + Gaussian and integers in [-2, 2], the integer ones degenerate; a
    random cone, a third of them with zero signs, half with the sum row."""
    m = int(rng.integers(1, max_m + 1))
    N = int(rng.integers(2, max_N + 1))
    A = [lambda: rng.standard_normal((m, N)),
         lambda: rng.integers(0, 2, (m, N)).astype(float),
         lambda: 2.0 * rng.integers(0, 2, (m, N)),
         lambda: 1.0 + rng.standard_normal((m, N)),
         lambda: rng.integers(-2, 3, (m, N)).astype(float)][rng.integers(5)]()
    signs = rng.choice([-1.0, 1.0], N)
    if rng.random() < 1 / 3:
        signs[rng.random(N) < rng.random()] = 0.0
    return A, ConeSpec(signs, sum_nonpos=bool(rng.integers(2)))


def test_cone_spec_construction_and_intersection():
    cone = ConeSpec.sign_cone(4, [1, 3])
    assert cone.signs.tolist() == [1.0, -1.0, 1.0, -1.0]
    other = ConeSpec.sign_cone(4, [0, 1])
    merged = cone.intersect(other)
    # index 0 has conflicting signs and collapses to zero; index 1 agrees
    assert merged.signs.tolist() == [0.0, -1.0, 1.0, 0.0]
    # all 9 sign pairs: equal signs stay, any other pair leaves only w_i = 0
    a, b = np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
    table = ConeSpec(a.ravel()).intersect(ConeSpec(b.ravel())).signs
    assert table.tolist() == [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    assert ConeSpec.sign_cone(2, [0], sum_nonpos=True).intersect(
        ConeSpec.sign_cone(2, [1])).sum_nonpos
    with pytest.raises(ValueError):
        ConeSpec([1.0, 2.0])
    with pytest.raises(ValueError):
        ConeSpec(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ConeSpec.sign_cone(3, [5])
    with pytest.raises(ValueError):
        cone.intersect(ConeSpec.sign_cone(3, []))


@pytest.mark.parametrize("K", [[-1], [3], [1.5]], ids=["below", "above", "fractional"])
def test_supports_outside_the_columns_are_rejected(K):
    A = np.array([[1.0, 2.0, -1.0], [0.0, 1.0, 1.0]])
    with pytest.raises(ValueError):
        ConeSpec.sign_cone(3, K)
    with pytest.raises(ValueError):
        check_hkplus_dual(A, K)
    with pytest.raises(ValueError):
        verify_certificate(A, np.ones(2), K, 0.5)
    # a fractional index must not be truncated to the column before it
    with pytest.raises(ValueError, match=r"support indices must be integers in \[0, 3\)"):
        build_dual_certificate(A, 0.5, 0.5, K)


def test_kernel_cone_invertible_matrix_holds():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 5))
    assert check_kernel_cone(A, ConeSpec.sign_cone(5, [0, 2])).holds


def test_kernel_cone_hand_examples():
    fails = check_kernel_cone(np.array([[1.0, 1.0]]), ConeSpec.sign_cone(2, [0]))
    assert fails.verdict == "fails"
    w = fails.witness
    assert w[0] < 0 < w[1] and abs(w[0] + w[1]) <= 1e-9
    assert check_kernel_cone(np.array([[1.0, -1.0]]), ConeSpec.sign_cone(2, [0])).holds
    # the {0} cone meets every kernel trivially, the zero matrix's included
    assert check_kernel_cone(np.zeros((1, 2)), ConeSpec(np.zeros(2))).holds


def test_kernel_cone_witness_satisfies_constraints():
    rng = np.random.default_rng(1)
    seen = 0
    for _ in range(100):
        A, K = _random_AK(rng)
        res = check_kernel_cone(A, ConeSpec.sign_cone(A.shape[1], K))
        if res.holds:
            continue
        w = res.witness
        assert np.linalg.norm(A @ w) <= 1e-7
        assert np.all(w[K] <= 1e-9)
        off = np.setdiff1d(np.arange(A.shape[1]), K)
        assert np.all(w[off] >= -1e-9)
        assert float(np.sum(np.abs(w))) == pytest.approx(1.0, abs=1e-7)
        seen += 1
    assert seen >= 10


def test_kernel_cone_agrees_with_the_lp_oracle():
    # every verdict matches the feasibility LP's, and every "fails" witness
    # lies in the cone and in ker(A) to the row tolerance, with sum|w| = 1
    rng = np.random.default_rng(8)
    verdicts = {"holds": 0, "fails": 0}
    for _ in range(300):
        A, cone = _random_cone_instance(rng)
        res = check_kernel_cone(A, cone)
        expected = "fails" if lp_kernel_cone_fails(A, cone.signs, cone.sum_nonpos) else "holds"
        assert res.verdict == expected
        verdicts[res.verdict] += 1
        if res.holds:
            assert res.witness is None
            continue
        w, s = res.witness, cone.signs
        assert np.all(w * s >= 0) and np.all(w[s == 0] == 0)
        assert not cone.sum_nonpos or np.sum(w) <= TOL_FEAS
        assert np.max(np.abs(A @ w)) <= TOL_FEAS
        assert np.sum(np.abs(w)) == pytest.approx(1.0, abs=TOL_FEAS)
        assert res.margin == np.linalg.norm(A @ w)
    assert min(verdicts.values()) >= 50, verdicts


def _answering(monkeypatch, u):
    """Both of _gordan's solves answer u: NNLS returns it and BVLS returns
    it.  With u None, NNLS raises its iteration limit and BVLS stops at its
    iteration limit on the origin."""
    def fake_nnls(B, e, *, maxiter):
        if u is None:
            raise RuntimeError("Maximum number of iterations reached.")
        return np.asarray(u, dtype=float), 0.0

    def fake_bvls(B, e, **kwargs):
        x = np.zeros(B.shape[1]) if u is None else np.asarray(u, dtype=float)
        return OptimizeResult(x=x, status=0 if u is None else 1)

    monkeypatch.setattr(binrec.analysis, "nnls", fake_nnls)
    monkeypatch.setattr(binrec.analysis, "lsq_linear", fake_bvls)


@pytest.mark.parametrize("A, cone, u", [
    # no answer at all
    ([[1.0, 1.0]], ConeSpec.sign_cone(2, [0]), None),
    # u = 0: neither a solution nor a separating y (every v-column at 0)
    ([[1.0, 1.0]], ConeSpec.sign_cone(2, [0]), [0.0, 0.0]),
    # every v-column at -1, but the slack entry y_sum = 1 > 0
    ([[1.0, -1.0]], ConeSpec([-1.0, -1.0], sum_nonpos=True), [0.25, 0.25, 0.0]),
    # the solution (1/2, 1/2) scaled off the normalization row by 1e-6
    ([[1.0, 1.0]], ConeSpec.sign_cone(2, [0]), [0.5 + 5e-7, 0.5 + 5e-7]),
    # Bu = e exactly, but u = (2, -1) is no cone element: ker(A) misses the
    # nonnegative orthant here
    ([[1.0, 2.0]], ConeSpec.sign_cone(2, []), [2.0, -1.0]),
], ids=["raises", "zero", "slack", "off-row", "negative"])
def test_unverified_nnls_answers_are_solver_failures(monkeypatch, A, cone, u):
    # a verdict stands only on an object checked after the solve; each fake
    # answer, taken at face value, would give a wrong verdict or none, and
    # BVLS giving the same answer does not turn it into one
    A = np.array(A)
    _answering(monkeypatch, u)
    with pytest.raises(SolverFailure):
        check_kernel_cone(A, cone)
    if not cone.sum_nonpos:
        with pytest.raises(SolverFailure):
            check_hkplus_dual(A, np.flatnonzero(cone.signs < 0))


def test_bvls_rescues_a_bad_nnls_answer(monkeypatch):
    # NNLS answers u = 0, which verifies neither side of the alternative;
    # BVLS on the same system gives the oracle's verdict, checked the same way
    monkeypatch.setattr(binrec.analysis, "nnls",
                        lambda B, e, *, maxiter: (np.zeros(B.shape[1]), 0.0))
    rng = np.random.default_rng(21)
    for _ in range(40):
        A, cone = _random_cone_instance(rng)
        if not cone.signs.any():
            continue
        res = check_kernel_cone(A, cone)
        assert res.holds != lp_kernel_cone_fails(A, cone.signs, cone.sum_nonpos)
        if not res.holds:
            assert np.max(np.abs(A @ res.witness)) <= TOL_FEAS


def test_kernel_cone_on_a_degenerate_system_has_a_verdict():
    # column 3 of this {0, 2} matrix is zero.  scipy's nnls returned a point
    # of residual 0.523 there, which it reported as 0.183 and which verifies
    # neither side; BVLS's point verifies the holds side
    A = gen_matrix(EnsembleConfig(kind="biased", m=5, N=10, seed=2, mu=1, sigma=1,
                                  lambda_bound=1))
    cone = ConeSpec.sign_cone(10, [0, 2, 6, 8, 9], sum_nonpos=True)
    assert not lp_kernel_cone_fails(A.entries, cone.signs, cone.sum_nonpos)
    assert check_kernel_cone(A, cone).holds


@pytest.mark.parametrize("N, m", [(10, 3), (10, 5), (10, 7), (12, 6)])
@pytest.mark.parametrize("kind", ["gaussian", "biased"])
def test_kernel_cone_counts_match_the_arrangement_laws(kind, N, m):
    # For A in general position, whatever its ensemble, the binary points x
    # whose sign cone meets ker(A) trivially (box-LS recovers x uniquely)
    # are exactly the 2 sum_{l<m} C(N-1, l) vertices of the zonotope
    # A[0,1]^N (Cover 1965), and those whose cone with the sum row does
    # (x is box-BP's unique optimum) are sum_{l<=m} C(N, l), the regions of
    # an affine arrangement (Zaslavsky 1975; Donoho and Tanner 2010).
    # Every support is checked against counts that no solver computed.
    biased = dict(mu=1.0, sigma=1.0 / math.sqrt(3.0), lambda_bound=1.0,
                  base_dist="uniform_bounded")
    A = gen_matrix(EnsembleConfig(kind=kind, m=m, N=N, seed=100 * N + m,
                                  **(biased if kind == "biased" else {}))).entries
    counts = [sum(check_kernel_cone(A, ConeSpec.sign_cone(N, np.flatnonzero(x),
                                                          sum_nonpos=sum_row)).holds
                  for x in itertools.product((0, 1), repeat=N))
              for sum_row in (False, True)]
    box_ls_count = 2 * sum(math.comb(N - 1, l) for l in range(m))
    assert counts == [box_ls_count, sum(math.comb(N, l) for l in range(m + 1))]
    assert 2 ** N * face_survival_prob(m, N) == box_ls_count


def test_kernel_cone_K_complement_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(100):
        A, K = _random_AK(rng)
        N = A.shape[1]
        Kc = np.setdiff1d(np.arange(N), K)
        a = check_kernel_cone(A, ConeSpec.sign_cone(N, K)).verdict
        b = check_kernel_cone(A, ConeSpec.sign_cone(N, Kc)).verdict
        assert a == b


def test_hkplus_hand_examples():
    good = check_hkplus_dual(np.array([[1.0, -1.0]]), [0])
    assert good.holds and good.witness[0] < 0
    assert not check_hkplus_dual(np.array([[1.0, 1.0]]), [0]).holds


def test_hkplus_agrees_with_kernel_cone():
    rng = np.random.default_rng(3)
    for _ in range(200):
        A, K = _random_AK(rng, max_m=6, max_N=10)
        cone = ConeSpec.sign_cone(A.shape[1], K)
        dual = check_hkplus_dual(A, K)
        assert dual.verdict == check_kernel_cone(A, cone).verdict
        if dual.holds:
            # the LP's unit margin: s_i (A^T v)_i >= 1 with equality somewhere
            assert np.min(cone.signs * (A.T @ dual.witness)) == pytest.approx(1.0, rel=1e-12)
            assert dual.margin == pytest.approx(1.0, rel=1e-12)
        else:
            assert dual.witness is None and dual.margin == 0.0


def test_bnsp_iff_unique_box_bp_recovery():
    # B-NSP characterizes x0 being the UNIQUE minimizer.  The solver may
    # still return x0 among tied optima, so the failure direction is checked
    # through the witness: x0 + s*w is feasible with no larger l1 norm.
    rng = np.random.default_rng(4)
    failures_checked = 0
    for _ in range(100):
        A, K = _random_AK(rng, max_m=6, max_N=9)
        N = A.shape[1]
        cone = ConeSpec.sign_cone(N, K, sum_nonpos=True)
        res = check_kernel_cone(A, cone)
        x0 = np.zeros(N)
        x0[K] = 1.0
        rep = box_bp(RecoveryProblem(A, A @ x0))
        if res.holds:
            assert recovery_success(rep.x_hat, x0)
        else:
            w = res.witness
            s = 0.5 / max(1.0, float(np.max(np.abs(w))))
            alt = x0 + s * w
            assert np.all((alt >= -1e-9) & (alt <= 1 + 1e-9))
            assert np.linalg.norm(A @ alt - A @ x0) <= 1e-7
            assert np.sum(alt) <= np.sum(x0) + 1e-7
            assert np.linalg.norm(alt - x0) > 1e-3
            failures_checked += 1
    assert failures_checked >= 10


def test_joint_recovery_implies_intersected_cone_trivial():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(200):
        A, K = _random_AK(rng, max_m=6, max_N=9)
        N = A.shape[1]
        S = np.sort(rng.permutation(N)[: int(rng.integers(0, N + 1))])
        xK = np.zeros(N)
        xK[K] = 1.0
        xS = np.zeros(N)
        xS[S] = 1.0
        okK = recovery_success(box_bp(RecoveryProblem(A, A @ xK)).x_hat, xK)
        okS = recovery_success(box_bp(RecoveryProblem(A, A @ xS)).x_hat, xS)
        if not (okK and okS):
            continue
        Sc = np.setdiff1d(np.arange(N), S)
        cone = ConeSpec.sign_cone(N, K).intersect(ConeSpec.sign_cone(N, Sc))
        assert check_kernel_cone(A, cone).holds
        checked += 1
    assert checked >= 20


def test_certificate_explicit_forms():
    nu = build_dual_certificate(np.zeros((4, 6)), 0.5, 0.5, [0, 2])
    rho = -0.25 / 2.0
    assert np.allclose(nu, rho)
    D = np.array([[1.0, 5.0], [-1.0, 7.0]])
    nu = build_dual_certificate(D, 0.5, 0.5, [0])
    assert np.allclose(nu, rho + np.array([1.0, -1.0]))


def test_certificate_centering_identity():
    rng = np.random.default_rng(6)
    D = rng.standard_normal((10, 20))
    nu = build_dual_certificate(D, 0.3, 0.7, [1, 5, 9])
    rho = -0.49 / 1.2
    assert abs(float(np.sum(nu - rho))) <= 1e-9


def test_certificate_is_the_dense_formula():
    # rho 1 + De - mean(De) 1 with De = D @ e, e the indicator of J, at the
    # first column, the last and all of them
    rng = np.random.default_rng(11)
    m, N, mu, sigma = 37, 23, 0.4, 0.3
    D = rng.standard_normal((m, N))
    rho = -sigma ** 2 / (4.0 * mu)
    for J in ([0], [N - 1], list(range(N))):
        e = np.zeros(N)
        e[J] = 1.0
        De = D @ e
        ref = rho + De - De.mean()
        nu = build_dual_certificate(D, mu, sigma, J)
        assert np.max(np.abs(nu - ref)) <= 1e-12 * np.max(np.abs(ref)), J


def test_certificate_domain_errors():
    with pytest.raises(ValueError):
        build_dual_certificate(np.zeros((2, 3)), 0.0, 0.5, [0])
    nu = build_dual_certificate(np.zeros((2, 3)), 0.0, 0.5, [0], rho_override=-1.0)
    assert np.allclose(nu, -1.0)
    with pytest.raises(ValueError):
        build_dual_certificate(np.zeros((2, 3)), 0.5, 0.5, [])
    # J = [1, 1, 2] would build J = {1, 2}'s certificate under |J| = 3
    with pytest.raises(ValueError, match="repeats"):
        build_dual_certificate(np.zeros((2, 3)), 0.5, 0.5, [1, 1, 2])


def test_verify_certificate_hand_example():
    A = np.array([[1.0, -1.0]])
    ok, margins = verify_certificate(A, np.array([-1.0]), [0], 0.5)
    assert ok and np.all(margins > 0)
    ok, _ = verify_certificate(A, np.array([-1.0]), [0], 2.0)
    assert not ok
    with pytest.raises(ValueError):
        verify_certificate(A, np.array([-1.0]), [0], -0.1)


def test_certificate_implies_kernel_cone_holds():
    rng = np.random.default_rng(7)
    confirmed = 0
    for _ in range(300):
        A, K = _random_AK(rng, max_m=6, max_N=8, kinds=("gaussian",))
        nu = rng.standard_normal(A.shape[0])
        ok, _ = verify_certificate(A, nu, K, t=1e-6)
        if not ok:
            continue
        assert check_kernel_cone(A, ConeSpec.sign_cone(A.shape[1], K)).holds
        confirmed += 1
    assert confirmed >= 3


def test_certificate_threshold_table():
    assert certificate_threshold(36, 1.0, "lemma") == pytest.approx(1.0)
    assert certificate_threshold(32, 1.0, "proof_off_support") == pytest.approx(1.0)
    assert certificate_threshold(6, 1.0, "proof_on_support") == pytest.approx(1.0)
    with pytest.raises(ValueError):
        certificate_threshold(10, 1.0, "guess")

