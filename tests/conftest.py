"""Settings for the whole test session.

One BLAS thread per process, as the benchmark runs: the suite's matrices
are small, where OpenBLAS's threads cost more than they save, and the
acceptance fixtures fork one worker process per CPU, each of which would
start BLAS threads of its own.  It takes effect only when set before numpy
is first imported; a value already in the environment wins."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
