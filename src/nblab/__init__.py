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
    PoleAtOne,
    PrecisionUnreachable,
    SingularSystem,
)
from .fracsum import DilatedFracSum
from .gammafn import ComplexEvalReport
from .gram import GramSystem, gram_system
from .moments import (
    ConstantsReport,
    MomentReport,
    NormReport,
    constants_report,
    dilated_frac_moment,
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
    "PoleAtOne",
    "PrecisionUnreachable",
    "SingularSystem",
    "best_approximation",
    "best_approximation_from_gram",
    "constants_report",
    "dilated_frac_moment",
    "find_critical_zeros",
    "functional_equation_residual",
    "gram_system",
    "moment_constant",
    "moment_report",
    "necessary_condition_gap",
    "partial_moment_constant",
    "sweep",
    "weighted_norm_report",
    "xi",
    "zeta",
]
