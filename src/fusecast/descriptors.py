"""Segment partitioning and the per-segment prompt.

A context window is cut into non-overlapping fixed-length segments. A
segment's prompt names the time range it covers, then its mean, population
std and net change at fixed precision, joined by one space. The prompt string
keys the text-embedding cache, so every rendering rule here must be
byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .errors import ConfigError

# Fixed English month abbreviations; strftime's %b is locale-dependent and
# would break prompt-byte determinism across machines.
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


@dataclass(frozen=True)
class Segment:
    """A contiguous block of ``len(values)`` steps starting at ``start``."""

    values: np.ndarray
    start: datetime
    end: datetime


def segment_series(
    values: np.ndarray, start: datetime, segment_len: int, freq: timedelta
) -> list[Segment]:
    """Partition ``values`` into floor(len/segment_len) segments.

    The trailing remainder of ``len(values) % segment_len`` steps is dropped.
    """
    values = np.asarray(values, dtype=np.float64)
    n_total = values.shape[0]
    if segment_len > n_total:
        raise ConfigError(f"segment length {segment_len} > series length {n_total}")
    n = n_total // segment_len
    segments = []
    for i in range(n):
        lo = i * segment_len
        seg_start = start + lo * freq
        segments.append(
            Segment(
                values=values[lo : lo + segment_len],
                start=seg_start,
                end=seg_start + (segment_len - 1) * freq,
            )
        )
    return segments


def _stats(v: np.ndarray) -> tuple[float, float, float]:
    """Mean, population std and net change; the reductions ndarray.mean and .std run."""
    mean = np.add.reduce(v) / v.size
    std = np.sqrt(np.add.reduce(np.square(v - mean)) / v.size)
    return float(mean), float(std), float(v[-1] - v[0])


def _instant(ts: datetime) -> str:
    """Render an instant as ``DD-Mon-YYYY HH:MM``, locale-independent."""
    return f"{ts.day:02d}-{_MONTHS[ts.month - 1]}-{ts.year:04d} {ts.hour:02d}:{ts.minute:02d}"


def render_prompt(segment: Segment) -> str:
    """The segment's prompt: its time range, then its statistics, each to four places."""
    mean, std, change = _stats(segment.values)
    return (f"The time range of this sequence is from {_instant(segment.start)} to "
            f"{_instant(segment.end)} Mean is {mean:.4f}, standard deviation is "
            f"{std:.4f}, change is {change:.4f}.")
