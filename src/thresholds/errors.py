"""Shared exception taxonomy.

Every module raises these instead of bare ValueError/RuntimeError so the CLI
can map failures onto its exit-code contract in one place: DomainError and
UnsupportedError (with their subclasses) exit 3, WorkBudgetExceededError 4 and
NoCandidateError 5.
"""


class DomainError(ValueError):
    """An argument is outside the domain of the operation: a value out of
    range, or a vector or matrix of the wrong length or shape."""


class NotPrimePowerError(DomainError):
    """Requested field order is not a prime power."""


class UnsupportedError(ValueError):
    """The parameters are valid but outside the supported range of this implementation."""


class SizeCapError(UnsupportedError):
    """An enumeration would exceed the hard size cap."""


class WorkBudgetExceededError(RuntimeError):
    """An exact check would exceed its work budget."""


class NoCandidateError(RuntimeError):
    """A greedy step found no acceptable candidate; `history` holds the steps done."""

    def __init__(self, message: str, history=()):
        super().__init__(message)
        self.history = list(history)
