"""Infinite divisibility of squared Gaussian vectors.

Decide whether the coordinatewise square of a centered Gaussian vector has
an infinitely divisible law, certify when its covariance is (up to diagonal
scaling) the expected-visit-count matrix of a transient killed Markov
chain, construct that chain explicitly, and verify every certificate with
independent Monte-Carlo and brute-force oracles.
"""

__version__ = "0.1.0"

from .criteria import (
    GreenClassification,
    IdVerdict,
    MMatrixCert,
    MMatrixFailure,
    NoSignature,
    Signature,
    classify_green,
    find_signature,
    is_diag_dominant,
    is_id_square,
    is_m_matrix,
    triple_necessary,
    triple_sufficient,
)
from .decomposition import (
    GreenDecomposition,
    NonPositiveScalingError,
    NotInfinitelyDivisibleError,
    NumericalFailureError,
    SymmetryViolationError,
    decompose,
    reconstruct,
    row_sum_scaling,
    symmetric_green,
)
from .kernels import (
    BetaOutOfRangeError,
    DyadicGrid,
    NonPositivePointError,
    NonPositiveScaleError,
    QuadratureFailureError,
    adaptive_simpson,
    brownian_cov,
    chi_deltas,
    dyadic_discretize,
    fbm_cov,
    measure_density,
    random_green,
    scale_conjugate,
    sheet_counterexample,
    sheet_cov,
)
from .linalg import (
    DEFAULT_TOL,
    NotPositiveDefiniteError,
    SingularMatrixError,
    Tolerances,
    as_covariance,
    as_square_matrix,
    cholesky,
    invert,
    is_nonneg,
    transience_bound,
)
from .simulate import (
    ChainSpec,
    InvalidChainError,
    SimReport,
    laplace_exact,
    laplace_mc,
    sample_gaussian,
    simulate_ct_green,
    simulate_green,
    validate_chain,
)

__all__ = [
    "__version__",
    # linalg
    "Tolerances",
    "DEFAULT_TOL",
    "NotPositiveDefiniteError",
    "SingularMatrixError",
    "as_square_matrix",
    "as_covariance",
    "cholesky",
    "invert",
    "transience_bound",
    "is_nonneg",
    # criteria
    "Signature",
    "MMatrixCert",
    "MMatrixFailure",
    "NoSignature",
    "IdVerdict",
    "GreenClassification",
    "is_m_matrix",
    "find_signature",
    "is_id_square",
    "triple_necessary",
    "triple_sufficient",
    "is_diag_dominant",
    "classify_green",
    # decomposition
    "GreenDecomposition",
    "NotInfinitelyDivisibleError",
    "NonPositiveScalingError",
    "NumericalFailureError",
    "SymmetryViolationError",
    "row_sum_scaling",
    "decompose",
    "reconstruct",
    "symmetric_green",
    # simulate
    "ChainSpec",
    "SimReport",
    "InvalidChainError",
    "validate_chain",
    "simulate_green",
    "simulate_ct_green",
    "sample_gaussian",
    "laplace_exact",
    "laplace_mc",
    # kernels
    "BetaOutOfRangeError",
    "NonPositivePointError",
    "NonPositiveScaleError",
    "QuadratureFailureError",
    "DyadicGrid",
    "fbm_cov",
    "brownian_cov",
    "sheet_cov",
    "sheet_counterexample",
    "random_green",
    "scale_conjugate",
    "measure_density",
    "adaptive_simpson",
    "dyadic_discretize",
    "chi_deltas",
]
