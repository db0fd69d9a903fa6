"""GUAS certification for switched linear pairs with a common weak
quadratic Lyapunov function, via observability of the reduced bilinear
system on the common kernel."""

from .analyzer import AnalyzerOptions, Verdict, analyze, empirical_evidence
from .bad_locus import (
    in_F,
    in_G,
    kpetit_classify,
    lambda_of,
    scan_G,
    wedge,
)
from .decomposition import (
    BlockFamily,
    KernelDecomposition,
    block_form,
    common_kernel,
)
from .matrix_core import (
    MatrixPair,
    NormalizedPair,
    check_weak_lyapunov,
    is_hurwitz,
    normalize,
    strict_lyapunov_2x2,
    symmetric_part,
)
from .observability import (
    ObservabilityReport,
    SweepScale,
    hurwitz_observability_crosscheck,
    kalman_matrix,
    pair_observable,
    sweep_lambda,
    sweep_scale,
)
from .simulator import (
    SwitchingSignal,
    Trajectory,
    bad_feedback_trajectory,
    integrate,
    output_measure,
    worst_case_switching,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyzerOptions",
    "BlockFamily",
    "KernelDecomposition",
    "MatrixPair",
    "NormalizedPair",
    "ObservabilityReport",
    "SweepScale",
    "SwitchingSignal",
    "Trajectory",
    "Verdict",
    "analyze",
    "bad_feedback_trajectory",
    "block_form",
    "check_weak_lyapunov",
    "common_kernel",
    "empirical_evidence",
    "hurwitz_observability_crosscheck",
    "in_F",
    "in_G",
    "integrate",
    "is_hurwitz",
    "kalman_matrix",
    "kpetit_classify",
    "lambda_of",
    "normalize",
    "output_measure",
    "pair_observable",
    "scan_G",
    "strict_lyapunov_2x2",
    "sweep_lambda",
    "sweep_scale",
    "symmetric_part",
    "wedge",
    "worst_case_switching",
]
