"""Exact divisor-ratio sums over digit-defined sets, constants, verification."""

from .digitset import (
    DigitClass,
    classify,
    count_non_a,
    non_a_bound,
    permutation_witness,
)
from .dirichlet import (
    ProductEstimate,
    dirichlet_lhs,
    dirichlet_rhs,
    euler_product_C,
    lemma_coefficient,
    local_factor_residual,
    main_term_slope,
    theorem_constant,
    zeta_real,
)
from .multiplicative import (
    SCALE_EXP,
    divisor_count,
    divisor_ratio,
    divisor_ratio_brute,
    factorize,
    sieve_segment,
    unitary_divisor_count,
)
from .sums import (
    Checkpoint,
    CheckpointFormatError,
    EngineConfig,
    accumulate,
    checkpoint_schedule,
    load_checkpoints,
    save_checkpoints,
    twisted_sum,
)
from .analysis import (
    ComparisonRow,
    FitReport,
    compare_main_term,
    corrected_theorem_rows,
    fit_error_exponent,
    report,
)

__version__ = "0.1.0"
