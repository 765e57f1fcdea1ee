"""Algebra-valued metric and partial-metric spaces with contraction
certificates and certified fixed-point iteration."""

from .algebra import (
    AlgebraElement,
    OrderTolerance,
    abs_element,
    add,
    involution,
    is_positive,
    leq,
    matrix,
    mul,
    norm,
    scalar,
    scale,
    spectrum,
    sqrt_positive,
    sub,
    unit,
    vector,
    zero,
)
from .contractions import (
    ContractionSpec,
    FFunction,
    InvalidSpecError,
    OperatorSpec,
    PhiFunction,
    VerificationResult,
    check_F_axioms,
    effective_rate,
    square_first_combiner,
    sum_combiner,
    verify_contraction,
    zero_phi,
)
from .partial import (
    PartialProblem,
    PartialSolveResult,
    reduce_problem,
    solve_partial,
    verify_corollary_hypothesis,
)
from .solver import (
    ConvergenceCertificate,
    SolveConfig,
    bound_audit,
    certify_phi_fixed_point,
    picard_solve,
    uniqueness_probe,
)
from .spaces import (
    AxiomReport,
    Box,
    Interval,
    ValuedDistance,
    check_metric_axioms,
    check_partial_axioms,
    induced_metric,
)

__version__ = "0.1.0"
