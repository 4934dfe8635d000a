"""Loading, splitting, normalizing, and windowing of uniformly sampled series.

CSV layout follows the public ETT convention: a header row, a first column
named ``date`` holding ``YYYY-MM-DD HH:MM:SS`` instants, and one numeric
column per channel. Lines starting with ``#`` are skipped so generated files
can carry their provenance inline.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterator

import numpy as np

from .errors import ConfigError, DegenerateChannel, ParseError, SplitTooShort

_DATE_FORMATS = ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M", "%Y-%m-%d")


@dataclass(frozen=True)
class TimeSeriesFrame:
    """A complete multivariate series with a uniform sampling interval."""

    timestamps: tuple[datetime, ...]
    values: np.ndarray  # (T, V) float64
    names: tuple[str, ...]
    freq: timedelta

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    """Chronological boundaries plus the context length used for sampling.

    ``test_end`` may fall short of the frame length: split sizes are
    configuration, and rows past the configured total are simply unused.
    """

    train_end: int
    val_end: int
    test_end: int
    context_len: int

    @classmethod
    def from_counts(cls, counts: tuple[int, int, int], context_len: int) -> "SplitSpec":
        train, val, test = counts
        return cls(
            train_end=train,
            val_end=train + val,
            test_end=train + val + test,
            context_len=context_len,
        )


@dataclass(frozen=True)
class SplitRanges:
    """Half-open index ranges tiling [0, train+val+test)."""

    train: tuple[int, int]
    val: tuple[int, int]
    test: tuple[int, int]


@dataclass(frozen=True)
class NormStats:
    """Per-channel z-score statistics, computed on the train range only."""

    mean: np.ndarray  # (V,)
    std: np.ndarray  # (V,) population std, strictly positive


@dataclass(frozen=True)
class WindowSample:
    """One univariate context/target pair cut from a single channel."""

    channel: int
    context: np.ndarray  # (C,)
    target: np.ndarray  # (F,)
    start: datetime  # timestamp of the first context step


def _parse_timestamp(text: str, row: int) -> datetime:
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise ParseError(f"row {row}: unparseable timestamp {text!r}", row=row, column=0)


def load_csv(path) -> TimeSeriesFrame:
    """Load an ETT-format CSV into a frame, validating the uniform grid."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = rows[0]
    if len(header) < 2:
        raise ParseError(f"{path}: need a date column plus at least one channel")
    names = tuple(h.strip() for h in header[1:])
    body = rows[1:]
    if len(body) < 2:
        raise ParseError(f"{path}: need at least 2 data rows, got {len(body)}")

    timestamps: list[datetime] = []
    values = np.empty((len(body), len(names)), dtype=np.float64)
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise ParseError(f"row {i + 1}: expected {len(header)} cells, got {len(row)}", row=i + 1)
        timestamps.append(_parse_timestamp(row[0].strip(), i + 1))
        for j, cell in enumerate(row[1:]):
            try:
                x = float(cell)
            except ValueError:
                raise ParseError(
                    f"row {i + 1}, column {names[j]!r}: non-numeric cell {cell!r}",
                    row=i + 1,
                    column=j + 1,
                ) from None
            if not np.isfinite(x):
                raise ParseError(
                    f"row {i + 1}, column {names[j]!r}: missing/non-finite value",
                    row=i + 1,
                    column=j + 1,
                )
            values[i, j] = x

    freq = timestamps[1] - timestamps[0]
    if freq <= timedelta(0):
        raise ParseError(f"{path}: timestamps not increasing at row 2", row=2)
    for i in range(1, len(timestamps)):
        if timestamps[i] - timestamps[i - 1] != freq:
            raise ParseError(f"{path}: non-uniform step at row {i + 1}: "
                             f"{timestamps[i] - timestamps[i - 1]} != {freq}", row=i + 1)
    return TimeSeriesFrame(tuple(timestamps), values, names, freq)


def make_splits(frame: TimeSeriesFrame, spec: SplitSpec, horizon: int) -> SplitRanges:
    """Cut the frame into chronological train/val/test index ranges.

    Raises SplitTooShort unless the train split holds one full
    ``context_len + horizon`` window and val/test each hold one horizon.
    """
    if not 0 < spec.train_end < spec.val_end < spec.test_end <= frame.length:
        raise SplitTooShort(
            f"boundaries ({spec.train_end}, {spec.val_end}, {spec.test_end}) "
            f"invalid for length {frame.length}"
        )
    c, f = spec.context_len, horizon
    train_len = spec.train_end
    val_len = spec.val_end - spec.train_end
    test_len = spec.test_end - spec.val_end
    if train_len < c + f:
        raise SplitTooShort(f"train split {train_len} < context+horizon {c + f}")
    if val_len < f or test_len < f:
        raise SplitTooShort(f"val/test split ({val_len}, {test_len}) shorter than horizon {f}")
    return SplitRanges(
        train=(0, spec.train_end),
        val=(spec.train_end, spec.val_end),
        test=(spec.val_end, spec.test_end),
    )


def extend_back(split: tuple[int, int], context_len: int) -> tuple[int, int]:
    """Widen a split range leftward so contexts can borrow earlier history."""
    start, end = split
    return (max(0, start - context_len), end)


def compute_norm_stats(frame: TimeSeriesFrame, train_range: tuple[int, int]) -> NormStats:
    """Per-channel mean and population std over the train rows."""
    lo, hi = train_range
    block = frame.values[lo:hi]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mean = block.mean(axis=0)
        std = block.std(axis=0)  # population (1/N) convention
    for v, (m, s) in enumerate(zip(mean, std)):
        if s <= 0.0:
            raise DegenerateChannel(f"channel {frame.names[v]!r} is constant on the train range")
        if not (np.isfinite(m) and s < np.inf):  # a NaN std fails this too
            raise DegenerateChannel(f"channel {frame.names[v]!r}: train mean or std overflows")
    return NormStats(mean=mean, std=std)


def _check_stats(frame: TimeSeriesFrame, stats: NormStats) -> None:
    if stats.mean.shape != (frame.channels,) or stats.std.shape != (frame.channels,):
        raise ConfigError(
            f"stats cover {stats.mean.shape[0]} channels, frame has {frame.channels}"
        )


def normalize(frame: TimeSeriesFrame, stats: NormStats) -> TimeSeriesFrame:
    _check_stats(frame, stats)
    return TimeSeriesFrame(
        frame.timestamps, (frame.values - stats.mean) / stats.std, frame.names, frame.freq
    )


def denormalize(frame: TimeSeriesFrame, stats: NormStats) -> TimeSeriesFrame:
    _check_stats(frame, stats)
    return TimeSeriesFrame(
        frame.timestamps, frame.values * stats.std + stats.mean, frame.names, frame.freq
    )


def window_count(split_len: int, context_len: int, horizon: int, stride: int) -> int:
    """Windows per channel in a range of ``split_len`` rows."""
    usable = split_len - context_len - horizon
    if usable < 0:
        return 0
    return usable // stride + 1


def sample_windows(
    frame: TimeSeriesFrame,
    split: tuple[int, int],
    context_len: int,
    horizon: int,
    stride: int = 1,
) -> Iterator[WindowSample]:
    """Enumerate context/target windows channel-major, then time-major.

    Windows lie entirely inside ``split``; extend the range first (see
    ``extend_back``) when contexts should borrow history from the left.
    """
    start, end = split
    count = window_count(end - start, context_len, horizon, stride)
    if count == 0:
        raise SplitTooShort(f"range of {end - start} rows cannot hold context {context_len} "
                            f"+ horizon {horizon}")
    for channel in range(frame.channels):
        for t in range(start, start + count * stride, stride):
            yield WindowSample(
                channel=channel,
                context=frame.values[t : t + context_len, channel],
                target=frame.values[t + context_len : t + context_len + horizon, channel],
                start=frame.timestamps[t],
            )
