"""Exception types shared across the package.

Domain violations (bad arguments, out-of-range parameters, singular inputs)
derive from DomainError so callers, and the CLI in particular, can map them
to a validation failure in one catch. Everything else derives from
EstimationError.
"""


class EstimationError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EstimationError, ValueError):
    """An argument lies outside the domain of the requested operation."""


class DegenerateSpectrum(DomainError):
    """The Hamiltonian gap is zero (or numerically so) where a gap is required."""


class DegenerateInput(DomainError):
    """A vector that must be nonzero is zero."""


class DivergentTime(DomainError):
    """The evolution time sits on a csc pole where the variance diverges."""


class SingularQfim(DomainError):
    """The Fisher information matrix is not invertible."""


class SingularJacobian(DomainError):
    """A Jacobian that must be invertible is singular."""


class NoContraction(DomainError):
    """The per-iteration trial count is too small for the recursion to contract."""


class MleNonconvergence(EstimationError):
    """The likelihood ascent did not converge within the iteration budget."""
