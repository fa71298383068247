"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Model or experiment parameters violate a documented constraint."""


class OutputPathError(ConfigurationError):
    """The directory that the output base path names does not exist."""


class PathOverflowError(RuntimeError):
    """A path hit its step cap before the variance threshold was reached.

    Signals a model violating its variance floor, not a transient condition.
    """


class DegenerateStartError(ConfigurationError):
    """The threshold n is too small relative to the first conditional
    variance, so the fractional correction would leave (0, 1]."""

