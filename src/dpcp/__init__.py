"""Robust subspace recovery by multi-instance subgradient pursuit on the sphere."""

from .analysis import (
    RecoveryReport,
    classify_outliers,
    estimate_rank,
    f1_score,
    projection_distance,
    recovery_report,
    subspace_distance,
)
from .continuous import (
    ContinuousProblem,
    continuous_fixed_point,
    continuous_objective,
    continuous_psgm_run,
    continuous_span_check,
)
from .dataset import (
    DataMatrix,
    SubspaceModel,
    corrupt_with_outliers,
    generate_dataset,
    load_csv,
    normalize_columns,
    sample_haar_subspace,
    save_csv,
)
from .geometry import (
    GeometryStats,
    TheoryReport,
    beta_upper_bound,
    check_init_condition,
    continuous_limit_stats,
    estimate_eta,
    estimate_extremal_average,
    estimate_stats,
    hemisphere_height,
    k_diamond,
    kappa_and_r,
    mu_prime,
    recovery_condition,
    theory_report,
)
from .harness import ExperimentConfig, ResultTable, run_experiment
from .rsgm import OrthoBasis, rsgm_run, spectral_init
from .solver import (
    MBLS,
    Constant,
    DualBasis,
    ScheduleParams,
    SolverConfig,
    Trace,
    average_terms,
    objective,
    psgm_multi,
    psgm_single,
    step_size,
    subgradient,
)

__version__ = "0.1.0"
