"""Rolling multi-horizon forecasting, metrics, baselines, and harnesses.

A trained model emits one segment per step; longer horizons are produced
autoregressively by appending each prediction to the context and sliding the
window, then truncating to the requested length. The harnesses train
variant grids (ablation toggles and expert-count promotion) and report
validation MSE/MAE per variant.

Metrics are computed on the normalized scale throughout.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np

from .errors import ConfigError
from .model import ModelConfig, forward, init_params
from .textenc import PromptEncoder, ZeroTextSource
# `metrics` is unused here, but the acceptance criteria import it from this module
from .train import TrainConfig, assemble_windows, metrics, train_model, window_segments

HORIZONS = (96, 192, 336, 720)
ABLATION_ROWS = ("Original", "w/o Context", "w/o Fusion", "w/o MoE")


def persistence_baseline(context, horizon: int):
    """Repeat the last observed value."""
    context = np.asarray(context, dtype=np.float64)
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if context.shape[0] < 1:
        raise ConfigError("empty context")
    return np.full(horizon, context[-1])


def rolling_forecast(params, config: ModelConfig, context, start, freq, horizon: int, text_source):
    """Forecast `horizon` values by repeated next-segment prediction.

    Each roll re-renders prompts for the context-length tail window with arithmetic
    timestamps, predicts one segment from the final position, and appends it.
    ceil(horizon / segment_len) rolls run; the output is truncated exactly.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    context = np.asarray(context, dtype=np.float64)
    width = context.shape[0]
    buf = context.copy()
    for _ in range(math.ceil(horizon / config.segment_len)):
        tail_start = start + (buf.shape[0] - width) * freq
        x, prompts = window_segments(buf[-width:], tail_start, freq, config.segment_len)
        te = np.stack([text_source.embed(p) for p in prompts])
        trace = forward(params, config, x[None], te[None], keep_trace=False)
        buf = np.concatenate([buf, trace.pred[0, -1]])
    return buf[width : width + horizon]


def forecast_windows(params, config: ModelConfig, windows, freq, horizon: int, text_source):
    """Roll every window to `horizon`; returns the per-window forecasts."""
    if not windows:
        raise ConfigError("no windows to evaluate")
    for w in windows:
        if len(w.target) < horizon:
            raise ConfigError(f"window future has {len(w.target)} values < horizon {horizon}")
    return [rolling_forecast(params, config, w.context, w.start, freq, horizon, text_source)
            for w in windows]


def promotion_percent(mse_original: float, mse_new: float) -> float:
    """Relative MSE reduction, in percent."""
    return (mse_original - mse_new) / mse_original * 100.0


def format_promotion(mse_original: float, mse_new: float) -> str:
    """Render the reduction as a signed one-decimal percentage.

    The last decimal is truncated toward zero rather than rounded to
    nearest, so a gain is never overstated: 0.269 -> 0.239 is a reduction
    of 11.152% and renders as +11.1%, not +11.2%.
    """
    value = math.trunc(promotion_percent(mse_original, mse_new) * 10.0) / 10.0
    if value == 0:
        value = 0.0  # avoid "-0.0%"
    return f"{value:+.1f}%"


def train_variants(train_windows, val_windows, freq, rows) -> list:
    """Train one model per (ModelConfig, TrainConfig, text-source maker) row; results in row order.

    A maker takes no arguments and returns a text source. Each distinct (segment_len, maker
    object) calls its maker once and assembles train and val with that source, which then
    dies: every table is built before the first row trains, and no source outlives assembly.
    """
    assembled = {}
    for mconfig, _, make in rows:
        key = (mconfig.segment_len, make)  # a maker is keyed by identity
        if key not in assembled:  # the source lives only inside this comprehension
            assembled[key] = [assemble_windows(w, freq, mconfig.segment_len, source)
                              for source in [make()] for w in (train_windows, val_windows)]
    return [train_model(init_params(mconfig), mconfig, tconfig,
                        *assembled[mconfig.segment_len, make]) for mconfig, tconfig, make in rows]


def ablation_run(train_windows, val_windows, freq, config: ModelConfig,
                 tconfig: TrainConfig, seeds=(0, 1, 2)) -> dict:
    """Train the four ABLATION_ROWS under each seed; report validation MSE/MAE.

    Each row is a (ModelConfig, text-source maker) pair on the base config and seed.
    w/o Context zeroes the text embedding but keeps every parameter, so rows compare
    information content at equal capacity. w/o Fusion drops the gate parameter and
    passes the value pathway through (alpha fixed at 1). w/o MoE collapses to one
    ungated expert.

    Returns {"rows": {row: {"per_seed_mse", "per_seed_mae", "mean_mse",
    "std_mse", "mean_mae", "std_mae"}}}.
    """
    if not seeds:
        raise ConfigError("ablation needs at least one seed")
    if not config.fused or config.experts < 2:  # else two or more rows are one model
        raise ConfigError(f"ablation needs fused=True and experts >= 2, got fused={config.fused} "
                          f"experts={config.experts}")
    builtin = partial(PromptEncoder, config.dim)
    zero = partial(ZeroTextSource, config.dim)
    variants = dict(zip(ABLATION_ROWS, [(config, builtin), (config, zero),
                                        (replace(config, fused=False), builtin),
                                        (replace(config, experts=1, gated=False), builtin)]))
    grid = [(replace(variant, seed=seed), replace(tconfig, seed=seed), make)
            for variant, make in variants.values() for seed in seeds]
    results = iter(train_variants(train_windows, val_windows, freq, grid))
    rows = {}
    for row in variants:  # the grid runs row by row, seed by seed
        scored = [next(results) for _ in seeds]
        per_mse = [result.best_val_mse for result in scored]
        per_mae = [result.best_val_mae for result in scored]
        rows[row] = {
            "per_seed_mse": per_mse,
            "per_seed_mae": per_mae,
            "mean_mse": float(np.mean(per_mse)),
            "std_mse": float(np.std(per_mse)),
            "mean_mae": float(np.mean(per_mae)),
            "std_mae": float(np.std(per_mae)),
        }
    return {"rows": rows}


def promotion_run(train_windows, val_windows, freq, config: ModelConfig,
                  tconfig: TrainConfig, sizes) -> dict:
    """Single-expert vs routed-experts comparison across backbone widths.

    For each hidden size, trains a one-expert ungated model and a gated
    model with config.experts (at least 2) experts, all else identical, and
    reports the relative MSE/MAE reduction.
    """
    if not sizes:
        raise ConfigError("promotion needs at least one backbone size")
    if config.experts < 2:  # else the MoE row is the one-expert row plus a one-way gate
        raise ConfigError(f"promotion needs experts >= 2, got {config.experts}")
    bases = [replace(config, dim=dim) for dim in sizes]  # every width is checked before training
    table = []
    for base in bases:  # one harness call per size keeps one size's windows in memory
        make = partial(PromptEncoder, base.dim)
        pair = [(replace(base, experts=1, gated=False), tconfig, make),
                (replace(base, gated=True), tconfig, make)]
        results = train_variants(train_windows, val_windows, freq, pair)
        original, moe = ({"mse": r.best_val_mse, "mae": r.best_val_mae} for r in results)
        table.append({
            "size": base.dim,
            "original": original,
            "moe": moe,
            "promotion_mse": format_promotion(original["mse"], moe["mse"]),
            "promotion_mae": format_promotion(original["mae"], moe["mae"]),
            "promotion_mse_raw": promotion_percent(original["mse"], moe["mse"]),
        })
    return {"rows": table}


def render_table(headers, rows) -> str:
    """Fixed-width text table; a short row leaves its last columns blank."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells if i < len(row)) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_ablation_table(report: dict) -> str:
    rows = []
    for name in ABLATION_ROWS:
        entry = report["rows"][name]
        rows.append([
            name,
            f"{entry['mean_mse']:.4f}±{entry['std_mse']:.4f}",
            f"{entry['mean_mae']:.4f}±{entry['std_mae']:.4f}",
        ])
    return render_table(["variant", "val MSE", "val MAE"], rows)


def render_promotion_table(report: dict) -> str:
    rows = []
    for entry in report["rows"]:
        rows.append([
            entry["size"],
            f"{entry['original']['mse']:.4f}",
            f"{entry['moe']['mse']:.4f}",
            entry["promotion_mse"],
            f"{entry['original']['mae']:.4f}",
            f"{entry['moe']['mae']:.4f}",
            entry["promotion_mae"],
        ])
    return render_table(
        ["size", "MSE (1 expert)", "MSE (MoE)", "promotion", "MAE (1 expert)", "MAE (MoE)", "promotion"],
        rows,
    )


def render_forecast_table(report: dict) -> str:
    rows = [[h, *(f"{cell[m]:.4f}" for cell in (v, v["persistence"], v["last_segment"])
                  for m in ("mse", "mae"))] for h, v in report["horizons"].items()]
    rows.append(["avg", f"{report['avg_mse']:.4f}", f"{report['avg_mae']:.4f}"])
    rows += [[f"roll {k}", f"{mse:.4f}"] for k, mse in enumerate(report["roll_mse"], start=1)]
    return render_table(["horizon", "MSE", "MAE", "persistence MSE", "persistence MAE",
                         "last-segment MSE", "last-segment MAE"], rows)
