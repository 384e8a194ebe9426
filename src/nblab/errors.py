"""Exception types shared across the package."""


class NblabError(Exception):
    """Base class for all package errors."""


class DomainError(NblabError):
    """Input outside the mathematical domain of an operation."""


class PoleAtOne(DomainError):
    """Zeta evaluation requested at (or within tolerance of) the pole s = 1."""


class ConstraintViolated(DomainError):
    """A coefficient combination flagged as constrained fails its linear constraint."""


class DuplicateDilation(DomainError):
    """Two dilations coincide within tolerance where distinctness is required."""


class SingularSystem(NblabError):
    """The reduced Gram of a constrained solve is not positive definite, or the
    solve produced no finite solution."""


class PrecisionUnreachable(NblabError):
    """The requested certified accuracy cannot be met by the evaluation scheme."""
