"""Concentration bounds for eigenvalues, eigenvectors, and target-alignment of
sample kernel matrices, plus the seeded Monte Carlo and brute-force oracle
machinery that validates them empirically.
"""

__version__ = "0.1.0"

from .alignment import (
    kta,
    middle_spectrum_norm,
    theta_statistic,
)
from .bounds import (
    BoundInputs,
    BoundReport,
    BoundRow,
    ErrorNormBounds,
    bound_distance,
    bound_eigvec_pointwise,
    bound_eigvec_uniform,
    bound_gap,
    bound_inner,
    bound_second_order,
    bound_tail_sum,
    bound_theta,
    bound_topk_sum,
    bound_trace_uniform,
    c_theta,
    error_norm_bound,
    evaluate_bounds,
    second_order_gamma,
)
from .dataset import (
    CovarianceStats,
    SampleSet,
    covariance_stats,
    gen_gaussian,
    load_csv,
    load_csv_with_labels,
    load_labels,
)
from .errors import (
    ConfigError,
    DataError,
    DegeneracyError,
    DegenerateGapError,
    ParseError,
    SingularCovarianceError,
    SpecBoundsError,
    ValidityConditionError,
)
from .experiments import (
    BoxplotResult,
    ExperimentConfig,
    ExperimentResult,
    OracleRow,
    OracleTable,
    boxplot_stats,
    default_epsilons,
    run_concentration,
    run_oracles,
    subseed,
)
from .kernels import (
    GramMatrix,
    KernelSpec,
    diag_sup,
    distance_kernel,
    gaussian,
    gram,
    inner_product_kernel,
    kernel_config,
    kernel_from_config,
    linear,
    lipschitz,
    polynomial,
)
from .spectral import (
    GapProfile,
    InterlacingResult,
    PerturbationPair,
    Spectrum,
    eig_sym,
    eigvals_sym,
    eigvec_first_order,
    gaps_from_eigenvalues,
    interlacing_check,
    perturb_replace,
    perturb_replace_norm,
    principal_submatrix,
    range_gap_tail,
    range_gap_top,
    sign_align,
)
