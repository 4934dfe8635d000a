"""Synthetic dataset generators in the ETT CSV layout.

Four kinds: sine, two-regime, constant, and linear. Timestamps are hourly
from a fixed epoch. Generation is a pure function of the spec, so identical
specs produce byte-identical CSVs.

The two-regime series alternates weekly blocks keyed to the day of month
(days 1-7, 15-21, 29-31 are regime A; days 8-14 and 22-28 are regime B),
so the schedule recurs every month regardless of month length. Regime A is
a smooth daily sine around +2; regime B is a steep daily ramp around -2
with a larger spread. Every day-of-month also fixes a daily amplitude from
a five-value grid and an opening-hour offset proportional to the day's
position inside its weekly block.

The construction is deliberate: day-to-day evolution is a different linear
map per regime pair (sine to sine, sine to ramp, and so on), so distinct
experts have exact work to split, and the amplitude grid plus opening
offset make each day's summary statistics a compact, exactly recurring
fingerprint of the calendar state. Block boundaries are nearly invisible
in raw values (the offset is two hundredths per position) but plain in the
rendered statistics, so a model that reads the prompts can anticipate
regime switches that a values-only model cannot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from datetime import datetime, timedelta

import numpy as np

from .data import TimeSeriesFrame
from .errors import ConfigError

EPOCH = datetime(2020, 1, 1, 0, 0, 0)
FREQ = timedelta(hours=1)
KINDS = ("sine", "two-regime", "constant", "linear")

_AMP_GRID = (0.7, 0.85, 1.0, 1.15, 1.3)
_REGIME_A_LEVEL = 2.0
_REGIME_B_LEVEL = -2.0
_REGIME_A_SCALE = 0.5
_REGIME_B_SCALE = 1.6
_OPEN_OFFSET = 0.02


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    length: int
    channels: int = 1
    noise: float = 0.0
    seed: int = 0
    period: int = 24
    amplitude: float = 1.0
    level: float = 0.0
    slope: float = 0.01

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.length < 2:
            raise ConfigError(f"length must be >= 2, got {self.length}")
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.period < 1:
            raise ConfigError(f"period must be >= 1, got {self.period}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.noise < math.inf:
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")
        for name in ("amplitude", "level", "slope"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")


def _is_regime_a(ts: datetime) -> bool:
    return ((ts.day - 1) // 7) % 2 == 0


def _two_regime_value(ts: datetime, phase: float) -> float:
    # day of month fixes everything: regime block, amplitude, opening offset
    day = ts.day
    hour = ts.hour
    amp = _AMP_GRID[(day - 1) % 5]
    if _is_regime_a(ts):
        base = _REGIME_A_LEVEL + _REGIME_A_SCALE * amp * np.sin(
            2.0 * np.pi * (hour / 24.0) + phase
        )
    else:
        base = _REGIME_B_LEVEL + _REGIME_B_SCALE * amp * (2.0 * (hour / 24.0) - 1.0)
    if hour == 0:
        base += _OPEN_OFFSET * ((day - 1) % 7)
    return base


def generate(spec: SynthSpec) -> TimeSeriesFrame:
    """Render the spec into an hourly frame."""
    t = np.arange(spec.length, dtype=np.float64)
    timestamps = tuple(EPOCH + i * FREQ for i in range(spec.length))
    rng = np.random.default_rng(spec.seed)
    columns = []
    for channel in range(spec.channels):
        phase = 2.0 * np.pi * channel / max(spec.channels, 2)
        if spec.kind == "sine":
            base = spec.level + spec.amplitude * np.sin(2.0 * np.pi * t / spec.period + phase)
        elif spec.kind == "constant":
            base = np.full(spec.length, spec.level + spec.amplitude)
        elif spec.kind == "linear":
            base = spec.level + spec.slope * t
        else:
            base = np.array([_two_regime_value(ts, phase) for ts in timestamps])
        if spec.noise > 0:
            base = base + spec.noise * rng.standard_normal(spec.length)
        columns.append(base)
    values = np.stack(columns, axis=1)
    if not np.isfinite(values).all():
        raise ConfigError(f"{spec.kind!r} settings give values that overflow float64")
    names = ("OT",) if spec.channels == 1 else tuple(f"v{i + 1}" for i in range(spec.channels))
    return TimeSeriesFrame(timestamps=timestamps, values=values, names=names, freq=FREQ)


def spec_comment(spec: SynthSpec) -> str:
    """Flat key=value echo of the spec, embedded in the CSV as a comment."""
    return " ".join(f"{key}={value}" for key, value in asdict(spec).items())


def save_csv(frame: TimeSeriesFrame, path, comment: str = "") -> None:
    """Write the ETT layout: a date column then one numeric column per channel."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("date," + ",".join(frame.names))
    for i, ts in enumerate(frame.timestamps):
        row = ",".join(repr(float(v)) for v in frame.values[i])
        lines.append(f"{ts.strftime('%Y-%m-%d %H:%M:%S')},{row}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
