"""Recovery of sparse and saturated binary signals from biased random
linear measurements: box-constrained basis pursuit and least squares,
kernel-cone recovery conditions, dual certificates, closed-form theory
calculators, and a phase-transition experiment harness."""

from .ensembles import BinarySignal, DenseMatrix, EnsembleConfig, gen_matrix, gen_sparse_binary
from .recovery import (RecoveryProblem, RecoveryReport, box_bp, box_bp_mirror,
                       box_ls, mibi_bp, recovery_success, robust_box_bp)

__all__ = [
    "BinarySignal", "DenseMatrix", "EnsembleConfig", "gen_matrix",
    "gen_sparse_binary", "RecoveryProblem", "RecoveryReport", "box_bp",
    "box_bp_mirror", "box_ls", "mibi_bp", "recovery_success", "robust_box_bp",
]
