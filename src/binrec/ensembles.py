"""Seeded generation of random measurement matrices, binary signals, and noise.

Matrix ensembles: Gaussian, Rademacher, 0/1-Bernoulli (all row-normalized by
m^{-1/2}) and biased matrices of the form mu * ones + D with D centered,
entrywise bounded i.i.d.  The Rademacher and Bernoulli ensembles share one
sign stream per seed, and the biased ensemble with a Rademacher base draws
from the same stream, so the algebraic relations between them hold exactly:
sqrt(m) * bernoulli01 == (ones + sqrt(m) * rademacher) / 2, and
biased(mu) - biased(0) == mu * ones.

The Gaussian kind and the biased kind with a uniform base are one call
each, ``standard_normal((m, N))`` or ``uniform(-half, half, (m, N))`` on the
seed's Generator, finished in place by the kind's scalar operations.  The
sign kinds (Rademacher, 0/1-Bernoulli and the biased kind with a Rademacher
base) read the sign stream straight from Philox's raw 64-bit output: the
signs are bit for bit those of
``2 * Generator(Philox(key=seed)).integers(0, 2, (m, N)) - 1``.  Each entry
of a sign kind is f(-1) or f(+1), with f the kind's chain of scalar
operations, and IEEE arithmetic is elementwise, so f runs once on the two
signs and the output is set from the stream's bits in one integer pass over
the two values' bit patterns, block by cache-sized block.  Every stream is
consumed in row-major order, so the first m rows of an m_max x N draw equal
the m x N draw with the same seed (up to the m^{-1/2} row scale of the
scaled kinds).

Philox is counter-based, so ``Philox.advance`` reaches any block of the
sign stream without drawing the blocks before it.  A large sign matrix is
therefore split into contiguous runs of whole blocks, one per thread (up to
``BINREC_THREADS``, else the CPUs this process may run on; one in a process
that ``multiprocessing`` started), each run reading the stream from its own
first block; the matrix is the same bit for bit at every thread count.
Only the sign fill gains from the split: a single Generator call draws a
Gaussian or uniform matrix about as fast as a blocked, threaded fill.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np
from numpy.random import Generator, Philox

MATRIX_KINDS = ("gaussian", "rademacher", "bernoulli01", "biased")
BASE_DISTS = ("rademacher_scaled", "uniform_bounded")


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of one measurement-matrix draw.

    ``mu``, ``sigma`` and ``lambda_bound`` only matter for ``kind="biased"``:
    the centered part has entry variance ``sigma**2`` and entries almost
    surely in ``[-lambda_bound, lambda_bound]``.  ``normalized`` applies the
    m^{-1/2} row scaling to biased matrices as well; the three classical
    ensembles are always scaled.
    """

    kind: str
    m: int
    N: int
    mu: float = 0.0
    base_dist: str = "rademacher_scaled"
    sigma: float = 1.0
    lambda_bound: float = 1.0
    seed: int = 0
    normalized: bool = False

    def __post_init__(self):
        if self.kind not in MATRIX_KINDS:
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        if self.base_dist not in BASE_DISTS:
            raise ValueError(f"unknown base distribution {self.base_dist!r}")
        if self.m < 1 or self.N < 1:
            raise ValueError(f"matrix dimensions must be positive, got {self.m}x{self.N}")
        for name in ("mu", "sigma", "lambda_bound"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)}")
        if self.mu < 0:
            raise ValueError("bias mu must be nonnegative")
        if self.sigma <= 0:
            raise ValueError("entry standard deviation sigma must be positive")
        if self.lambda_bound <= 0:
            raise ValueError("almost-sure bound lambda_bound must be positive")
        if self.kind == "biased":
            # the centered part must actually fit inside [-Lambda, Lambda]
            reach = self.sigma if self.base_dist == "rademacher_scaled" else math.sqrt(3.0) * self.sigma
            if reach > self.lambda_bound * (1 + 1e-12):
                raise ValueError(
                    f"sigma={self.sigma} incompatible with lambda_bound={self.lambda_bound} "
                    f"for base {self.base_dist!r}"
                )
            # numpy's uniform draw needs its range high - low to be finite
            if self.base_dist == "uniform_bounded" and not math.isfinite(2.0 * reach):
                raise ValueError(f"sigma={self.sigma} too large for base 'uniform_bounded': "
                                 "the range 2*sqrt(3)*sigma must be finite")


@dataclass
class DenseMatrix:
    """Row-major dense m x N matrix.

    The constructor checks that every entry is finite, so a matrix read by
    ``read_matrix`` (and so by the CLI) or handed to ``RecoveryProblem`` as
    an array is checked entry by entry, as are the Gaussian and uniform
    draws of ``gen_matrix``.  A sign-kind draw takes only two values, which
    ``gen_matrix`` checks before the fill; it is wrapped by ``_two_valued``
    without a second pass over the entries.
    """

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 2:
            raise ValueError("matrix entries must be 2-dimensional")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("matrix entries must be finite")

    @classmethod
    def _two_valued(cls, entries: np.ndarray) -> "DenseMatrix":
        """Wrap a 2-D float array whose entries are all one of two values
        already checked finite, without the entrywise check."""
        matrix = cls.__new__(cls)
        matrix.entries = entries
        return matrix

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def N(self) -> int:
        return self.entries.shape[1]


def _support(N: int, K) -> np.ndarray:
    """The indices K as an integer array; each must be an integer in [0, N)."""
    idx = np.asarray(K, dtype=int)
    if not np.array_equal(idx, K) or np.any((idx < 0) | (idx >= N)):
        raise ValueError(f"support indices must be integers in [0, {N})")
    return idx


@dataclass
class BinarySignal:
    """A 0/1 vector of length N given by its support."""

    N: int
    support: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    def __post_init__(self):
        self.support = _support(self.N, self.support)
        if np.any(np.diff(self.support) <= 0):
            raise ValueError("support indices must be strictly increasing")

    @property
    def k(self) -> int:
        return int(self.support.size)

    def dense(self) -> np.ndarray:
        x = np.zeros(self.N)
        x[self.support] = 1.0
        return x


def _rng(seed: int) -> Generator:
    # Philox is counter-based: the draw sequence is a pure function of the
    # key, independent of any global state.
    return Generator(Philox(key=seed))


# Entries per sign-fill block: small enough to stay in cache.  A block is
# _BLOCK / 2 raw words, so with _BLOCK a multiple of 8 every block starts on
# a whole 4-word Philox counter step and a run of blocks can start anywhere
# in the stream by ``Philox.advance``.
_BLOCK = 1 << 15
assert _BLOCK % 8 == 0

# Fewest blocks a thread must get before a fill splits into runs: a sign
# block takes about 0.13 ms of CPU (the page faults of a fresh output
# included) and starting a pool about 0.2 ms (2-core x86-64), so a run of 16
# blocks does ten times the work its thread costs.
_MIN_RUN_BLOCKS = 16


def _thread_cap() -> int:
    """Threads (or worker processes) to use: 1 in a process that
    ``multiprocessing`` started, such as a sweep's pool worker, whose
    siblings already share the CPUs; else ``BINREC_THREADS`` if set, else
    the CPUs this process may run on."""
    if multiprocessing.parent_process() is not None:
        return 1
    env = os.environ.get("BINREC_THREADS", "")
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ValueError(f"BINREC_THREADS must be a positive integer, got {env!r}")
        return cap
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill(m: int, N: int, seed: int, table: np.ndarray) -> np.ndarray:
    """The m x N matrix whose entries are ``table[b]`` for the bits b of
    ``Generator(Philox(key=seed)).integers(0, 2, (m, N))``: ``table`` holds a
    sign kind's entries for the signs -1 and +1.

    The blocks are cut into up to ``_thread_cap()`` contiguous runs of at
    least ``_MIN_RUN_BLOCKS`` blocks each, so a pool worker fills on one
    thread, and the runs fill their own slices of the output on a thread
    pool (numpy releases the GIL in the raw draw and the integer loops).
    Each run reads the stream from its own first block, so the matrix does
    not depend on the run count."""
    out = np.empty(m * N)
    blocks = -(-out.size // _BLOCK)
    runs = max(1, min(_thread_cap(), blocks // _MIN_RUN_BLOCKS))
    firsts = [blocks * r // runs for r in range(runs + 1)]
    lo, hi = table.view(np.int64)
    flip = lo ^ hi

    def fill_run(first: int, stop: int) -> None:
        bits = Philox(key=seed)
        # one counter step is 4 raw words, and a block reads _BLOCK / 2 of them
        bits.advance(first * (_BLOCK // 8))
        for start in range(first * _BLOCK, min(stop * _BLOCK, out.size), _BLOCK):
            block = out[start:start + _BLOCK]
            # integers(0, 2) is the top bit of each 32-bit half of the raw
            # stream, low half first (numpy's Lemire path for a range of 2);
            # the little-endian view keeps that order on any host
            raw = bits.random_raw((block.size + 1) // 2)
            halves = raw.astype("<u8", copy=False).view("<i4")[:block.size]
            # the arithmetic shift leaves 0 for b = 0 and -1 (every bit set)
            # for b = 1, so masking lo ^ hi by it and xoring lo gives lo or
            # hi; every dtype is fixed, whatever numpy's rule for scalar operands
            word = block.view(np.int64)
            np.right_shift(halves, np.int32(31), out=word)
            np.bitwise_and(word, flip, out=word)
            np.bitwise_xor(word, lo, out=word)

    if runs == 1:
        fill_run(0, blocks)
    else:
        with ThreadPoolExecutor(max_workers=runs) as pool:
            list(pool.map(fill_run, firsts, firsts[1:]))
    return out.reshape(m, N)


def gen_matrix(config: EnsembleConfig) -> DenseMatrix:
    """Draw a measurement matrix; deterministic given config and seed."""
    m, N, seed = config.m, config.N, config.seed
    scale = 1.0 / math.sqrt(m)
    drawn = None
    if config.kind == "gaussian":
        drawn = _rng(seed).standard_normal((m, N))
        ops = [(np.multiply, scale)]
    elif config.kind == "rademacher":
        ops = [(np.multiply, scale)]
    elif config.kind == "bernoulli01":
        # scale * (1 + s) / 2, in that order
        ops = [(np.add, 1.0), (np.multiply, scale), (np.divide, 2.0)]
    elif config.base_dist == "rademacher_scaled":
        ops = [(np.multiply, config.sigma), (np.add, config.mu)]
    else:
        # uniform on [-sqrt(3) sigma, sqrt(3) sigma] has variance sigma^2
        half = math.sqrt(3.0) * config.sigma
        drawn = _rng(seed).uniform(-half, half, (m, N))
        ops = [(np.add, config.mu)]
    if config.kind == "biased" and config.normalized:
        ops.append((np.multiply, scale))
    # a sign kind's ops run on the two signs, which give its only two entries
    values = np.array([-1.0, 1.0]) if drawn is None else drawn
    for op, c in ops:
        op(values, c, out=values)
    if drawn is not None:
        return DenseMatrix(drawn)
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix entries must be finite")
    return DenseMatrix._two_valued(_fill(m, N, seed, values))


def gen_sparse_binary(N: int, k: int, seed: int = 0) -> BinarySignal:
    """Uniformly random k-subset support; deterministic given seed."""
    if not 0 <= k <= N:
        raise ValueError(f"sparsity k={k} must lie in [0, N={N}]")
    support = np.sort(_rng(seed).permutation(N)[:k])
    return BinarySignal(N, support)


def gen_noise(m: int, eps: float, seed: int = 0) -> np.ndarray:
    """Noise vector with exactly the requested Euclidean norm."""
    if eps < 0:
        raise ValueError("noise level must be nonnegative")
    if eps == 0:
        return np.zeros(m)
    g = _rng(seed).standard_normal(m)
    return eps * g / np.linalg.norm(g)


# --- text formats ---------------------------------------------------------

def write_matrix(matrix: DenseMatrix, f: TextIO) -> None:
    f.write(f"{matrix.m} {matrix.N}\n")
    for row in matrix.entries:
        f.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_matrix(f: TextIO) -> DenseMatrix:
    header = f.readline().split()
    if len(header) != 2:
        raise ValueError("matrix header must be 'm N'")
    m, N = int(header[0]), int(header[1])
    entries = np.loadtxt(f, ndmin=2)
    if entries.shape != (m, N):
        raise ValueError(f"expected {m}x{N} matrix body, got {entries.shape}")
    return DenseMatrix(entries)


def write_signal(signal: BinarySignal, f: TextIO) -> None:
    f.write(f"{signal.N} {signal.k}\n")
    f.write(" ".join(str(i) for i in signal.support) + "\n")


def read_signal(f: TextIO) -> BinarySignal:
    header = f.readline().split()
    if len(header) != 2:
        raise ValueError("signal header must be 'N k'")
    N, k = int(header[0]), int(header[1])
    body = f.readline().split()
    if len(body) != k:
        raise ValueError(f"expected {k} support indices, got {len(body)}")
    return BinarySignal(N, np.array(sorted(int(i) for i in body), dtype=int))
