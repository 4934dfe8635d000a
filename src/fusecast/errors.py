"""Exception types shared across the package: each is a failure that a command reports.

The first three say an input cannot be read, one type per format: a CSV, a setting
(flag, key, checkpoint or array argument) and a cache file. The other four say a
readable input cannot serve this run.
"""


class FusecastError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FusecastError):
    """A CSV is not a uniform series: a bad byte, cell or layout, under two data rows,
    or a timestamp off the grid. `row` (a 1-based data row) and `column` locate the
    fault when one cell or row holds it; a grid error's `row` is the first off the grid.
    """

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class ConfigError(FusecastError):
    """An invalid setting: a flag or config value, a malformed checkpoint (a parameter
    block of the wrong shape included), or an array argument of the wrong shape.
    """


class CorruptCache(FusecastError):
    """Cache file is malformed or holds conflicting vectors for one prompt."""


class SplitTooShort(FusecastError):
    """A split cannot hold one full context+forecast window."""


class DegenerateChannel(FusecastError):
    """A channel is constant, or its mean or std overflows float64, on the training range."""


class CacheMiss(FusecastError):
    """A prompt was not found in the embedding cache."""


class NonFiniteGradient(FusecastError):
    """A gradient turned NaN/inf during optimization."""

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param
