import io
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import Generator, Philox

from binrec import ensembles
from binrec.ensembles import (_BLOCK, _MIN_RUN_BLOCKS, BASE_DISTS, MATRIX_KINDS,
                              BinarySignal, EnsembleConfig, _thread_cap,
                              gen_matrix, gen_noise, gen_sparse_binary,
                              read_matrix, read_signal, write_matrix,
                              write_signal)

# m*N odd and even within one block, then spanning several blocks with a
# partial last block (odd and even)
STREAM_SHAPES = [(1, 1), (7, 11), (4, 6), (131, 507), (257, 300)]
# base_dist and normalized only matter for the biased kind
STREAM_CASES = ([(kind, "rademacher_scaled", False) for kind in MATRIX_KINDS[:3]]
                + [("biased", base, normalized) for base in BASE_DISTS
                   for normalized in (False, True)])


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _stream_formula(kind, m, N, seed, mu, sigma, base_dist, normalized):
    """The matrix each kind is defined as, drawn whole from the Generator."""
    rng = Generator(Philox(key=seed))
    scale = 1.0 / math.sqrt(m)
    signs = lambda: 2.0 * rng.integers(0, 2, size=(m, N)).astype(float) - 1.0
    if kind == "gaussian":
        return scale * rng.standard_normal((m, N))
    if kind == "rademacher":
        return scale * signs()
    if kind == "bernoulli01":
        return scale * (1.0 + signs()) / 2.0
    if base_dist == "rademacher_scaled":
        entries = mu + sigma * signs()
    else:
        half = math.sqrt(3.0) * sigma
        entries = mu + rng.uniform(-half, half, size=(m, N))
    return scale * entries if normalized else entries


def test_bernoulli_entries_take_two_values():
    A = gen_matrix(EnsembleConfig(kind="bernoulli01", m=2, N=2, seed=42))
    allowed = {0.0, 1.0 / math.sqrt(2.0)}
    assert all(float(v) in allowed for v in A.entries.flatten())


def test_biased_rademacher_entries_are_zero_or_two():
    cfg = EnsembleConfig(kind="biased", m=5, N=7, mu=1.0, sigma=1.0,
                         lambda_bound=1.0, base_dist="rademacher_scaled", seed=3)
    A = gen_matrix(cfg)
    assert set(A.entries.flatten()) <= {0.0, 2.0}


def test_rademacher_empirical_moments():
    A = gen_matrix(EnsembleConfig(kind="rademacher", m=10**4, N=10, seed=0))
    col_means = A.entries.mean(axis=0)
    assert np.all(np.abs(col_means) <= 4.0 / math.sqrt(10**4 * 10))
    second = float(np.mean(A.entries ** 2))
    assert abs(second - 1e-4) <= 0.05 * 1e-4


def test_determinism_bit_for_bit():
    cfg = EnsembleConfig(kind="gaussian", m=6, N=9, seed=123)
    assert np.array_equal(gen_matrix(cfg).entries, gen_matrix(cfg).entries)


def test_biased_centered_part_bounded():
    cfg = EnsembleConfig(kind="biased", m=30, N=30, mu=0.7, sigma=0.3,
                         lambda_bound=0.6, base_dist="uniform_bounded", seed=9)
    D = gen_matrix(cfg).entries - 0.7
    assert np.all(np.abs(D) <= 0.6 + 1e-12)


def test_bias_identity_exact():
    # mu = 1 with half-integer entries stays exact in binary floating point
    kw = dict(kind="biased", m=8, N=12, sigma=0.5, lambda_bound=0.5, seed=11)
    diff = gen_matrix(EnsembleConfig(mu=1.0, **kw)).entries \
        - gen_matrix(EnsembleConfig(mu=0.0, **kw)).entries
    assert np.array_equal(diff, np.ones((8, 12)))
    diff9 = gen_matrix(EnsembleConfig(mu=0.9, **kw)).entries \
        - gen_matrix(EnsembleConfig(mu=0.0, **kw)).entries
    assert np.allclose(diff9, 0.9, atol=1e-15)


def test_bernoulli_from_rademacher_sign_stream():
    m, N, seed = 7, 11, 5
    bern = gen_matrix(EnsembleConfig(kind="bernoulli01", m=m, N=N, seed=seed))
    rad = gen_matrix(EnsembleConfig(kind="rademacher", m=m, N=N, seed=seed))
    lhs = math.sqrt(m) * bern.entries
    rhs = (np.ones((m, N)) + math.sqrt(m) * rad.entries) / 2.0
    assert np.array_equal(lhs, rhs)


def test_normalized_flag_scales_biased():
    kw = dict(kind="biased", m=9, N=4, mu=1.0, sigma=1.0, lambda_bound=1.0, seed=2)
    raw = gen_matrix(EnsembleConfig(normalized=False, **kw)).entries
    scaled = gen_matrix(EnsembleConfig(normalized=True, **kw)).entries
    assert np.array_equal(scaled, (1.0 / math.sqrt(9)) * raw)


@pytest.mark.parametrize("kind,base_dist,normalized", STREAM_CASES)
def test_gen_matrix_is_the_generator_stream_bit_for_bit(kind, base_dist, normalized):
    # pins numpy's stream: the blocked raw-Philox fill must equal the whole
    # Generator draw, so a change in numpy's bounded-integer path fails here
    assert all(m * N > 2 * _BLOCK and m * N % _BLOCK for m, N in STREAM_SHAPES[3:])
    mu, sigma = 0.7, 0.4
    for m, N in STREAM_SHAPES:
        for seed in (0, 12_345, 2**63 - 1):
            cfg = EnsembleConfig(kind=kind, m=m, N=N, mu=mu, sigma=sigma,
                                 lambda_bound=0.7, base_dist=base_dist,
                                 seed=seed, normalized=normalized)
            expected = _stream_formula(kind, m, N, seed, mu, sigma, base_dist,
                                       normalized)
            assert _same_bits(gen_matrix(cfg).entries, expected), (m, N, seed)


@pytest.mark.parametrize("kind,m,N,mu,sigma,normalized", [
    ("biased", 131, 507, 0.1, 0.3, False),     # mu +- sigma round
    ("biased", 131, 507, 0.3, 0.3, False),     # mu - sigma is +0.0
    ("biased", 3, 30_001, 0.1, 0.3, True),     # scaled by 3^{-1/2}
    ("bernoulli01", 131, 507, 0.0, 1.0, False),
], ids=["inexact", "zero", "normalized-m3", "bernoulli01"])
def test_sign_fill_takes_the_formula_values_bit_for_bit(monkeypatch, kind, m, N, mu,
                                                        sigma, normalized):
    # the kind's scalar operations run once on the signs -1 and +1, and the
    # fill copies those two bit patterns: they must be the entries the
    # whole-matrix formula rounds to, at one run and split into runs
    assert m * N > 2 * _BLOCK and m * N % _BLOCK
    monkeypatch.setattr(ensembles, "_MIN_RUN_BLOCKS", 1)
    expected = _stream_formula(kind, m, N, 17, mu, sigma, "rademacher_scaled", normalized)
    cfg = EnsembleConfig(kind=kind, m=m, N=N, mu=mu, sigma=sigma, lambda_bound=sigma,
                         seed=17, normalized=normalized)
    for threads in ("1", "2"):
        monkeypatch.setenv("BINREC_THREADS", threads)
        assert _same_bits(gen_matrix(cfg).entries, expected), threads
    if mu == sigma or kind == "bernoulli01":
        zeros = expected[expected == 0.0]
        assert zeros.size and not np.signbit(zeros).any()


@pytest.mark.parametrize("base_dist,mu,sigma", [
    ("rademacher_scaled", 1e308, 1e308),
    # numpy's uniform needs a finite range 2 sqrt(3) sigma; mu + entry overflows
    ("uniform_bounded", 1.5e308, 0.85e308 / math.sqrt(3.0))])
def test_gen_matrix_rejects_entries_that_overflow(base_dist, mu, sigma):
    cfg = EnsembleConfig(kind="biased", m=3, N=4, mu=mu, sigma=sigma, lambda_bound=1e308,
                         base_dist=base_dist)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        gen_matrix(cfg)


@pytest.mark.parametrize("threads", ["2", "3", "5"])
def test_split_fill_equals_one_run(monkeypatch, threads):
    # runs of any length, down to one block, must join into the one-run
    # fill bit for bit; (1, 1) and (7, 11) give more threads than blocks,
    # (4097, 33) splits 5 blocks unevenly with a partial last block; a short
    # switch interval interleaves the threads as often as it can
    monkeypatch.setattr(ensembles, "_MIN_RUN_BLOCKS", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for m, N in STREAM_SHAPES + [(4097, 33)]:
            for kind, base_dist, normalized in STREAM_CASES:
                cfg = EnsembleConfig(kind=kind, m=m, N=N, mu=0.7, sigma=0.4,
                                     lambda_bound=0.7, base_dist=base_dist,
                                     seed=m * N, normalized=normalized)
                monkeypatch.setenv("BINREC_THREADS", "1")
                one_run = gen_matrix(cfg).entries
                monkeypatch.setenv("BINREC_THREADS", threads)
                assert _same_bits(gen_matrix(cfg).entries, one_run), (m, N, kind, base_dist)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind,base_dist", [("biased", "rademacher_scaled"),
                                            ("biased", "uniform_bounded"),
                                            ("gaussian", "rademacher_scaled")])
def test_threaded_fill_is_the_generator_stream(monkeypatch, kind, base_dist):
    # 4M entries (32 MB) is over two runs of the real minimum, so the sign
    # fill splits at 2 threads; Gaussian and uniform are one Generator call
    m, N, seed, mu, sigma = 20_011, 200, 70_003, 0.5, 0.5
    assert m * N // _BLOCK >= 2 * _MIN_RUN_BLOCKS
    pools = []

    class RecordedPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(ensembles, "ThreadPoolExecutor", RecordedPool)
    expected = _stream_formula(kind, m, N, seed, mu, sigma, base_dist, False)
    cfg = EnsembleConfig(kind=kind, m=m, N=N, mu=mu, sigma=sigma,
                         lambda_bound=0.9, base_dist=base_dist, seed=seed)
    for threads in ("1", "2"):
        monkeypatch.setenv("BINREC_THREADS", threads)
        assert _same_bits(gen_matrix(cfg).entries, expected), threads
    assert pools == ([] if kind == "gaussian" or base_dist == "uniform_bounded" else [2])


def test_thread_cap(monkeypatch):
    monkeypatch.delenv("BINREC_THREADS", raising=False)
    available = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count())
    assert _thread_cap() == available
    monkeypatch.setenv("BINREC_THREADS", "3")
    assert _thread_cap() == 3
    for bad in ("abc", "1.5", "0", "-3"):
        monkeypatch.setenv("BINREC_THREADS", bad)
        with pytest.raises(ValueError, match="BINREC_THREADS"):
            _thread_cap()


@pytest.mark.parametrize("kind,base_dist", [("rademacher", "rademacher_scaled"),
                                            ("bernoulli01", "rademacher_scaled"),
                                            ("gaussian", "rademacher_scaled"),
                                            ("biased", "rademacher_scaled"),
                                            ("biased", "uniform_bounded")])
def test_row_prefix_of_a_taller_draw(kind, base_dist):
    # the first m rows of an m_max x N draw are the m x N draw: bit for bit
    # for the unscaled biased kind, and up to the m^{-1/2} row scale (which
    # rounds differently at m and m_max) for the scaled kinds
    m_max, N, seed = 2 * _BLOCK // 51 + 3, 51, 31
    for m in (1, 2, 37, _BLOCK // N + 1, m_max - 1):
        kw = dict(kind=kind, N=N, mu=0.5, sigma=0.5, lambda_bound=0.9,
                  base_dist=base_dist, seed=seed)
        tall = gen_matrix(EnsembleConfig(m=m_max, **kw)).entries[:m]
        short = gen_matrix(EnsembleConfig(m=m, **kw)).entries
        if kind == "biased":
            assert _same_bits(tall, short), m
        else:
            assert np.allclose(math.sqrt(m_max) * tall, math.sqrt(m) * short,
                               rtol=4 * np.finfo(float).eps, atol=0.0), m


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(kind="toeplitz", m=2, N=2)
    with pytest.raises(ValueError):
        EnsembleConfig(kind="gaussian", m=0, N=2)
    with pytest.raises(ValueError):
        EnsembleConfig(kind="biased", m=2, N=2, sigma=1.0, lambda_bound=0.5)
    with pytest.raises(ValueError):
        # uniform base reaches sqrt(3)*sigma, beyond this lambda_bound
        EnsembleConfig(kind="biased", m=2, N=2, sigma=1.0, lambda_bound=1.2,
                       base_dist="uniform_bounded")
    with pytest.raises(ValueError, match="sigma"):
        # sqrt(3)*sigma fits lambda_bound, but the uniform draw's range
        # 2*sqrt(3)*sigma overflows
        EnsembleConfig(kind="biased", m=2, N=2, sigma=5.7735e307, lambda_bound=1e308,
                       base_dist="uniform_bounded")


@pytest.mark.parametrize("params", [
    {"mu": math.nan}, {"mu": math.inf}, {"sigma": math.nan}, {"sigma": math.inf},
    {"lambda_bound": math.nan}, {"lambda_bound": math.inf},
    {"sigma": math.nan, "lambda_bound": math.nan}])
def test_config_rejects_non_finite_parameters(params):
    # rejected before gen_matrix fills a matrix with them
    with pytest.raises(ValueError, match="finite"):
        EnsembleConfig(kind="biased", m=2, N=2, **params)


def test_sparse_binary_edge_sparsities():
    assert gen_sparse_binary(5, 0, seed=1).support.size == 0
    full = gen_sparse_binary(5, 5, seed=1)
    assert np.array_equal(full.support, np.arange(5))
    with pytest.raises(ValueError):
        gen_sparse_binary(5, 6)


def test_sparse_binary_index_frequencies():
    counts = np.zeros(6)
    for seed in range(10000):
        counts[gen_sparse_binary(6, 3, seed=seed).support] += 1
    freq = counts / 10000
    assert np.all(np.abs(freq - 0.5) <= 0.03)


def test_signal_dense():
    s = BinarySignal(6, np.array([1, 4]))
    assert np.array_equal(s.dense(), [0, 1, 0, 0, 1, 0])


def test_signal_validation():
    with pytest.raises(ValueError):
        BinarySignal(4, np.array([2, 1]))
    with pytest.raises(ValueError):
        BinarySignal(4, np.array([0, 4]))
    # a fractional index is rejected, not truncated to [0, 2]
    with pytest.raises(ValueError, match="integers"):
        BinarySignal(5, [0.5, 2.7])
    assert np.array_equal(BinarySignal(5, [0.0, 2.0]).support, [0, 2])


def test_noise_norm_exact():
    assert np.array_equal(gen_noise(3, 0.0, seed=1), np.zeros(3))
    assert abs(gen_noise(1, 2.0, seed=4)[0]) == pytest.approx(2.0)
    n = gen_noise(50, 0.1, seed=7)
    assert np.linalg.norm(n) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(ValueError):
        gen_noise(3, -0.5)


def test_matrix_roundtrip():
    A = gen_matrix(EnsembleConfig(kind="gaussian", m=4, N=6, seed=77))
    buf = io.StringIO()
    write_matrix(A, buf)
    buf.seek(0)
    B = read_matrix(buf)
    assert np.array_equal(A.entries, B.entries)


def test_signal_roundtrip():
    s = gen_sparse_binary(20, 7, seed=5)
    buf = io.StringIO()
    write_signal(s, buf)
    buf.seek(0)
    t = read_signal(buf)
    assert t.N == 20 and np.array_equal(s.support, t.support)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["gaussian", "rademacher", "bernoulli01", "biased"]),
       st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**63 - 1))
def test_matrix_roundtrip_property(kind, m, N, seed):
    A = gen_matrix(EnsembleConfig(kind=kind, m=m, N=N, mu=0.5, sigma=0.5,
                                  lambda_bound=0.5, seed=seed))
    buf = io.StringIO()
    write_matrix(A, buf)
    buf.seek(0)
    assert np.array_equal(read_matrix(buf).entries, A.entries)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30), st.integers(0, 2**63 - 1))
def test_sparse_binary_exact_size_property(k, seed):
    s = gen_sparse_binary(30, k, seed=seed)
    assert s.k == k
    assert float(np.sum(s.dense())) == k
