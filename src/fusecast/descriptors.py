"""Segment partitioning and the per-segment text descriptors.

A context window is cut into non-overlapping fixed-length segments. Each
segment is summarized twice: a timestamp phrase covering its time range and
a statistics phrase (mean, population std, net change). Their concatenation
is the prompt string that keys the text-embedding cache, so every rendering
rule here must be byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .errors import SegmentTooLong

# Fixed English month abbreviations; strftime's %b is locale-dependent and
# would break prompt-byte determinism across machines.
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

TIMESTAMP_TEMPLATE = "The time range of this sequence is from {start} to {end}"
STAT_TEMPLATE = "Mean is {mean}, standard deviation is {std}, change is {change}."


@dataclass(frozen=True)
class Segment:
    """A contiguous block of ``len(values)`` steps starting at ``start``."""

    values: np.ndarray
    start: datetime
    end: datetime


@dataclass(frozen=True)
class StatDescriptor:
    mean: float
    std: float  # population convention
    change: float  # last value minus first value


def segment_series(
    values: np.ndarray, start: datetime, segment_len: int, freq: timedelta
) -> list[Segment]:
    """Partition ``values`` into floor(len/segment_len) segments.

    The trailing remainder of ``len(values) % segment_len`` steps is dropped.
    """
    values = np.asarray(values, dtype=np.float64)
    n_total = values.shape[0]
    if segment_len > n_total:
        raise SegmentTooLong(f"segment length {segment_len} > series length {n_total}")
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


def stat_descriptor(segment: Segment) -> StatDescriptor:
    """Mean, population std, and net change; the reductions ndarray.mean and .std run."""
    v = segment.values
    mean = np.add.reduce(v) / v.size
    std = np.sqrt(np.add.reduce(np.square(v - mean)) / v.size)
    return StatDescriptor(mean=float(mean), std=float(std), change=float(v[-1] - v[0]))


def format_instant(ts: datetime) -> str:
    """Render an instant as ``DD-Mon-YYYY HH:MM``, locale-independent."""
    return f"{ts.day:02d}-{_MONTHS[ts.month - 1]}-{ts.year:04d} {ts.hour:02d}:{ts.minute:02d}"


def render_timestamp_descriptor(segment: Segment) -> str:
    return TIMESTAMP_TEMPLATE.format(
        start=format_instant(segment.start), end=format_instant(segment.end)
    )


def render_stat_text(stats: StatDescriptor, decimals: int = 4) -> str:
    """Fixed-precision statistics phrase."""
    return STAT_TEMPLATE.format(
        mean=f"{stats.mean:.{decimals}f}",
        std=f"{stats.std:.{decimals}f}",
        change=f"{stats.change:.{decimals}f}",
    )


def render_prompt(segment: Segment, decimals: int = 4) -> str:
    """Full descriptor pipeline for one segment.

    The prompt is the timestamp phrase and stats phrase joined by one space.
    """
    stat_text = render_stat_text(stat_descriptor(segment), decimals)
    return f"{render_timestamp_descriptor(segment)} {stat_text}"
