"""Exception types shared across the package."""


class SequenceError(ValueError):
    """Malformed text or an invalid creation sequence."""


class ResourceLimitError(RuntimeError):
    """The work would exceed one of the package's fixed resource caps."""


class CountTooLargeError(OverflowError):
    """An exact count cannot enter double precision without rounding."""


class ConvergenceError(RuntimeError):
    """The eigensolver did not converge within its sweep cap."""
