"""Shared exception taxonomy.

Every module raises these instead of bare ValueError/RuntimeError so the CLI
can map failures onto its exit-code contract in one place.
"""


class DomainError(ValueError):
    """A numeric argument is outside the mathematical domain of the operation."""


class NotPrimePowerError(DomainError):
    """Requested field order is not a prime power."""


class UnsupportedError(ValueError):
    """The parameters are valid but outside the supported range of this implementation."""


class SizeCapError(UnsupportedError):
    """An enumeration would exceed the hard size cap."""


class RoundOffError(UnsupportedError, ArithmeticError):
    """A floating-point route lost the precision its exact answer needs."""


class LengthMismatchError(ValueError):
    """A vector has the wrong number of coordinates."""


class DigitOutOfRangeError(ValueError):
    """A symbol code is outside [0, q)."""


class ShapeMismatchError(ValueError):
    """Matrix/vector shapes are incompatible."""


class MissingAxisError(ValueError):
    """A joint table lacks the axis needed by the requested measure."""


class FullSpaceKernelError(ValueError):
    """A quotient map was requested for the full ambient space (no quotient left)."""


class WorkBudgetExceededError(RuntimeError):
    """An exact check would exceed its work budget."""


class NoCandidateError(RuntimeError):
    """A greedy step found no acceptable candidate; `history` holds the steps done."""

    def __init__(self, message: str, history=()):
        super().__init__(message)
        self.history = list(history)
