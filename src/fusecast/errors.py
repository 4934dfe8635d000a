"""Exception types shared across the package: each is a failure that a command reports."""


class FusecastError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FusecastError):
    """A CSV cell could not be parsed; carries row/column context."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class MalformedSeries(FusecastError):
    """Timestamps are not strictly increasing with a constant step."""


class TooShort(FusecastError):
    """Input series has fewer than two rows."""


class SplitTooShort(FusecastError):
    """A split cannot hold one full context+forecast window."""


class ShapeError(FusecastError):
    """Array dimensions do not match the declared contract."""


class DegenerateChannel(FusecastError):
    """A channel is constant, or its mean or std overflows float64, on the training range."""


class CacheMiss(FusecastError):
    """A prompt was not found in the embedding cache."""


class CorruptCache(FusecastError):
    """Cache file is malformed or holds conflicting vectors for one prompt."""


class NonFiniteGradient(FusecastError):
    """A gradient turned NaN/inf during optimization."""

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class ConfigError(FusecastError):
    """An invalid setting or argument value."""
