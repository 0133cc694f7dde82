"""Structured covariance estimation with likelihood-ratio matched constraints.

The package provides eigenvalue-map covariance estimators (sample matrix,
noise-floor clipping, rank-constrained, condition-number constrained and
diagonally loaded forms), selectors that tune imperfectly known constraints
against a precomputed invariant likelihood-ratio reference, a radar-style
jammer scenario simulator, and a seeded Monte Carlo experiment harness.
"""

from .estimators import (
    CnCase,
    CnCaseResult,
    ConstraintRecord,
    CovarianceEstimate,
    SampleStats,
    cncml,
    cncml_objective,
    cncml_u_star,
    condition_number,
    fml,
    lsmi,
    rcml,
    smi,
)
from .exceptions import (
    ElcovError,
    FormatError,
    InputError,
    NoRootError,
    NotPositiveSemidefiniteError,
    NumericalError,
    SingularMatrixError,
)
from .harness import (
    EstimatorSpec,
    ExperimentConfig,
    TrialRecord,
    default_steering_grid,
    load_experiment_config,
    run_experiment,
)
from .hermitian import (
    EigenDecomposition,
    as_hermitian,
    derive_rng,
    eig_hermitian,
    sample_covariance,
    sample_training,
    sqrt_factor,
)
from .likelihood import (
    LambertBranch,
    LRReference,
    lambert_w,
    log_lr_matrix,
    log_lr_rcml,
    log_lr_value,
    lr0_load,
    lr0_reference,
    lr0_store,
    lr_rcml,
    lr_value,
)
from .metrics import nmf_statistic, normalized_sinr
from .scenario import (
    CorruptionSpec,
    ScenarioConfig,
    TrainingSet,
    generate_training,
    jammer_covariance,
    matrix_load,
    matrix_save,
    read_cmat,
    steering_vector,
    write_cmat,
)
from .selection import (
    JointSelection,
    KmaxSelection,
    NoiseRoots,
    RankSelection,
    select_kmax,
    select_loading,
    select_rank,
    select_rank_sigma,
    sigma_el_roots,
    sigma_ml,
)

__version__ = "0.1.0"
