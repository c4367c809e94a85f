"""Exception hierarchy shared by all smoothcircle modules."""


class SmoothCircleError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SmoothCircleError, ValueError):
    """An argument violates a documented precondition (CLI exit code 1)."""


class ConvergenceError(SmoothCircleError, RuntimeError):
    """An iteration or refinement failed to converge (CLI exit code 2)."""


class ResourceBudgetError(SmoothCircleError, RuntimeError):
    """An exact computation would exceed its configured work budget (CLI exit code 2)."""
