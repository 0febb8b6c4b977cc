"""Exception hierarchy shared across the package.

All domain-outcome failures (as opposed to caller mistakes, which raise
ValueError) derive from PsqkdError so the CLI can map them to a single
exit code.
"""


class PsqkdError(Exception):
    """Base class for domain-outcome errors."""


class ZeroProbabilityError(PsqkdError):
    """The requested subtraction event has probability zero."""


class UnphysicalStateError(PsqkdError):
    """A covariance matrix stopped being physical (numerics or bad inputs)."""


class NonFiniteError(PsqkdError):
    """A pipeline stage overflowed or produced a non-finite value."""


class TruncationError(PsqkdError):
    """Fock-space truncation too small for the requested state."""


class TargetUnreachableError(PsqkdError):
    """A search target (e.g. key-rate level) cannot be met anywhere."""


class NoSecureRegionError(PsqkdError):
    """An optimization objective is insecure over the whole interval."""
