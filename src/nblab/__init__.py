"""Numerical laboratory for weighted-L2 approximation of 1 by dilated
fractional parts, with supporting zeta/xi analytic machinery."""

from .approx import (
    ApproximationResult,
    best_approximation,
    best_approximation_from_gram,
    necessary_condition_gap,
    sweep,
)
from .errors import (
    ConstraintViolated,
    DomainError,
    DuplicateDilation,
    NblabError,
    PoleAtNonPositiveInteger,
    PoleAtOne,
    PrecisionUnreachable,
    SingularSystem,
)
from .fracsum import DilatedFracSum, StepProfile, step_profile
from .gammafn import ComplexEvalReport, gamma
from .gram import GramSystem, gram_system, pair_product_integral
from .moments import (
    ConstantsReport,
    MomentReport,
    NormReport,
    constants_report,
    dilated_frac_moment,
    dilated_frac_moment_quad,
    euler_gamma,
    moment_constant,
    moment_report,
    partial_moment_constant,
    weighted_norm_report,
)
from .zeta import find_critical_zeros, functional_equation_residual, xi, zeta

__all__ = [
    "ApproximationResult",
    "ComplexEvalReport",
    "ConstantsReport",
    "ConstraintViolated",
    "DilatedFracSum",
    "DomainError",
    "DuplicateDilation",
    "GramSystem",
    "MomentReport",
    "NblabError",
    "NormReport",
    "PoleAtNonPositiveInteger",
    "PoleAtOne",
    "PrecisionUnreachable",
    "SingularSystem",
    "StepProfile",
    "best_approximation",
    "best_approximation_from_gram",
    "constants_report",
    "dilated_frac_moment",
    "dilated_frac_moment_quad",
    "euler_gamma",
    "find_critical_zeros",
    "functional_equation_residual",
    "gamma",
    "gram_system",
    "moment_constant",
    "moment_report",
    "necessary_condition_gap",
    "pair_product_integral",
    "partial_moment_constant",
    "step_profile",
    "sweep",
    "weighted_norm_report",
    "xi",
    "zeta",
]
