"""Block-augmented truncations of block-structured Markov chains, with
computable total-variation error bounds."""

from .blockmat import (
    BandedModel,
    BlockGeneratorModel,
    BmapQueueModel,
    FiniteBlockMatrix,
    GeometricTail,
    Mg1Model,
    MuRule,
    ValidationReport,
    load_model,
    phase_generator,
    validate_q_matrix,
)
from .bmap import (
    BmapModel,
    SpectralRecord,
    arrival_rate,
    bound_pipeline,
    build_generator,
    delta_D,
    find_beta_no_disaster,
    find_constants_disaster,
    spectral,
)
from .bounds import (
    BoundReport,
    DriftCertificate,
    GeometricVector,
    corollary_transform,
    decay_exponent,
    drift_check,
    minimized_bound,
    t_star,
    theorem_bound,
)
from .errors import (
    BmtruncError,
    CertificateNotVerified,
    CheckFailure,
    DegenerateArrivals,
    DimensionMismatch,
    DriftViolated,
    FirstColumnUnreachable,
    IncompatibleModels,
    InputError,
    InvalidBmap,
    InvalidModelFile,
    InvalidRedistribution,
    KNotZero,
    MultipleClosedClasses,
    NoConvergence,
    NoFeasibleK,
    NoPositiveC,
    NotConstantAcrossLevels,
    NotStochastic,
    NumericalFailure,
    TailSumUnavailable,
)
from .order import (
    DominanceReport,
    generator_dominates,
    generator_is_block_monotone,
    is_block_increasing,
    is_block_monotone_stochastic,
    td_transform,
    vector_dominates,
)
from .solve import (
    DecayReport,
    DistributionVector,
    solve_truncation,
    solve_truncations,
    stationary,
    transient_decay_check,
    transition_matrix,
    tv_distance,
    v_norm,
)
from .truncate import (
    TruncatedGenerator,
    TruncationSpec,
    check_no_closed_classes_above,
    custom_truncate,
    fc_truncate,
    lc_truncate,
    truncation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
