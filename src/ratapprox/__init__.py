"""Rational approximation toolkit.

Fits reduced-order rational models to sampled complex-valued functions by
four data-driven methods (Loewner framework, recursive Loewner, adaptive
barycentric fitting, Vector Fitting), extracts their poles and zeros, and
ships a 1/J0 benchmark on the rectangle [0, 10] x [-1, 1].
"""

__version__ = "0.1.0"

from .aaa import BarycentricModel, barycentric_poles_zeros, cleanup, eval_barycentric, fit_aaa
from .analysis import (
    CancellationPair,
    CompareConfig,
    ComparisonTable,
    ErrorReport,
    compare_methods,
    detect_cancellations,
    error_grid,
    match_known_zeros,
)
from .errors import (
    ComputationError,
    DivergenceError,
    EvaluationDomainError,
    InsufficientDataError,
    PartitionError,
    PencilError,
    PoleError,
    RankError,
    RatApproxError,
    SampleError,
    StagnationError,
    SymmetryError,
)
from .greedy import GreedyResult, fit_greedy
from .loewner import (
    DataPartition,
    LoewnerPencil,
    LoewnerReduction,
    ProjectedPoints,
    StateSpaceModel,
    build_pencil,
    partition,
    poles,
    projected_points,
    sylvester_residual,
    trajectory_study,
    truncate,
    zeros,
)
from .sampling import (
    OMEGA,
    Domain,
    SampleSet,
    sample_oracle,
    structured_grid,
    uniform_random_grid,
)
from .serialize import load_model, save_model
from .special import BESSEL_J0_ZEROS, bessel_j0, h_of_s
from .vectorfit import PoleResidueModel, eval_pole_residue, fit_vf, pr_poles_zeros

__all__ = [
    "__version__",
    "BESSEL_J0_ZEROS",
    "BarycentricModel",
    "CancellationPair",
    "CompareConfig",
    "ComparisonTable",
    "ComputationError",
    "DataPartition",
    "DivergenceError",
    "Domain",
    "ErrorReport",
    "EvaluationDomainError",
    "GreedyResult",
    "InsufficientDataError",
    "LoewnerPencil",
    "LoewnerReduction",
    "OMEGA",
    "PartitionError",
    "PencilError",
    "PoleError",
    "PoleResidueModel",
    "ProjectedPoints",
    "RankError",
    "RatApproxError",
    "SampleError",
    "SampleSet",
    "StagnationError",
    "StateSpaceModel",
    "SymmetryError",
    "barycentric_poles_zeros",
    "bessel_j0",
    "build_pencil",
    "cleanup",
    "compare_methods",
    "detect_cancellations",
    "error_grid",
    "eval_barycentric",
    "eval_pole_residue",
    "fit_aaa",
    "fit_greedy",
    "fit_vf",
    "h_of_s",
    "load_model",
    "match_known_zeros",
    "partition",
    "poles",
    "pr_poles_zeros",
    "projected_points",
    "sample_oracle",
    "save_model",
    "structured_grid",
    "sylvester_residual",
    "trajectory_study",
    "truncate",
    "uniform_random_grid",
    "zeros",
]
