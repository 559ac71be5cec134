"""Exception types shared across the package."""


class QmorError(Exception):
    """Base class for all domain errors raised by this package."""


class StructureError(QmorError):
    """A matrix violates a required structural property (shape, symmetry, realness)."""


class RankDeficiencyError(QmorError):
    """A basis or subspace does not reach the rank the construction requires."""


class SingularMatrixError(QmorError):
    """A linear solve hit a numerically singular matrix."""


class StabilityError(QmorError):
    """An operation requiring a Hurwitz state matrix received an unstable one."""


class DataValidationError(StructureError):
    """Interpolation points or directions unfit for a reduction or a frequency search."""


class InfeasiblePointError(QmorError):
    """A candidate frequency gave no admissible model; ``trace``: rows of an all-infeasible scan."""

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = list(trace)


class SchemaError(QmorError):
    """A JSON document does not conform to the expected schema."""
