"""Exception types shared across bosonkit."""


class BosonKitError(Exception):
    """Base class for all bosonkit errors."""


class UnsupportedError(BosonKitError):
    """Parameters fall outside the supported r >= s >= 1 regime."""


class UnsupportedFamilyError(UnsupportedError):
    """No moment measure is implemented for this (r, s) pair."""


class UnsupportedMomentError(UnsupportedError):
    """Moment order n = 0 requested on a measure whose mass is not 1."""


class OutOfRangeError(BosonKitError):
    """Index or order outside the valid range for the requested quantity."""


class NonIntegerResultError(BosonKitError):
    """An alternating sum that must collapse to a non-negative integer did not."""


class PrecisionExhaustedError(BosonKitError):
    """The requested error target is unreachable at the allowed precision."""


class DivergentSeriesError(BosonKitError):
    """Series terms fail to decay; the sum does not exist."""


class MissingDependencyError(BosonKitError):
    """A package the computation needs, such as mpmath, is not installed."""


class DomainError(BosonKitError):
    """Evaluation point outside the domain of a density or function."""
