"""Exception types shared across the package."""


class SequenceError(ValueError):
    """Malformed text or an invalid creation sequence."""


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured resource cap."""


class CountTooLargeError(OverflowError):
    """An exact count cannot enter double precision without rounding."""


class ConvergenceError(RuntimeError):
    """The eigensolver did not converge within its sweep cap."""
