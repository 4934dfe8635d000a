"""Rolling multi-horizon forecasting, metrics, baselines, and harnesses.

A trained model emits one segment per step; longer horizons are produced
autoregressively by appending each prediction to the context and sliding the
window, then truncating to the requested length. The harnesses train
variant grids (ablation toggles, expert-count promotion, hyperparameter
sweeps) and report validation MSE/MAE per variant.

Metrics are computed on the normalized scale throughout.
"""

from __future__ import annotations

import math
from dataclasses import replace, asdict

import numpy as np

from .errors import ConfigError, InvalidHorizon, ShapeError
from .model import ModelConfig, forward, init_params
from .textenc import text_source
from .train import TrainConfig, assemble_windows, metrics, train_model, window_tensors

HORIZONS = (96, 192, 336, 720)
ABLATION_ROWS = ("Original", "w/o Context", "w/o Fusion", "w/o MoE")


def persistence_baseline(context, horizon: int):
    """Repeat the last observed value."""
    context = np.asarray(context, dtype=np.float64)
    if horizon < 1:
        raise InvalidHorizon(f"horizon must be >= 1, got {horizon}")
    if context.shape[0] < 1:
        raise ShapeError("empty context")
    return np.full(horizon, context[-1])


class LinearBaseline:
    """Least-squares map from the flattened context to the next F values."""

    def __init__(self):
        self.weights = None  # (C+1, F), last row is the intercept

    def fit(self, contexts, futures):
        contexts = np.asarray(contexts, dtype=np.float64)
        futures = np.asarray(futures, dtype=np.float64)
        if contexts.ndim != 2 or futures.ndim != 2 or contexts.shape[0] != futures.shape[0]:
            raise ShapeError(f"contexts {contexts.shape} vs futures {futures.shape}")
        design = np.hstack([contexts, np.ones((contexts.shape[0], 1))])
        self.weights, *_ = np.linalg.lstsq(design, futures, rcond=None)
        return self

    def predict(self, context):
        if self.weights is None:
            raise ConfigError("baseline not fitted")
        context = np.asarray(context, dtype=np.float64)
        if context.shape[0] != self.weights.shape[0] - 1:
            raise ShapeError(f"context length {context.shape[0]} != fitted {self.weights.shape[0] - 1}")
        return np.concatenate([context, [1.0]]) @ self.weights


def rolling_forecast(params, config: ModelConfig, context, start, freq, horizon: int,
                     text_source, decimals: int = 4):
    """Forecast `horizon` values by repeated next-segment prediction.

    Each roll re-renders prompts for the context-length tail window with arithmetic
    timestamps, predicts one segment from the final position, and appends it.
    ceil(horizon / segment_len) rolls run; the output is truncated exactly.
    """
    if horizon < 1:
        raise InvalidHorizon(f"horizon must be >= 1, got {horizon}")
    context = np.asarray(context, dtype=np.float64)
    width = context.shape[0]
    buf = context.copy()
    for _ in range(math.ceil(horizon / config.segment_len)):
        tail_start = start + (buf.shape[0] - width) * freq
        x, te, _ = window_tensors(buf[-width:], tail_start, freq, config.segment_len,
                                  text_source, decimals)
        trace = forward(params, config, x[None], te[None])
        buf = np.concatenate([buf, trace.pred[0, -1]])
    return buf[width : width + horizon]


def forecast_windows(params, config: ModelConfig, windows, freq, horizon: int,
                     text_source, decimals: int = 4):
    """Average rolling-forecast MSE/MAE over a set of windows."""
    if not windows:
        raise ConfigError("no windows to evaluate")
    scores = []
    for w in windows:
        if len(w.target) < horizon:
            raise ShapeError(f"window future has {len(w.target)} values < horizon {horizon}")
        pred = rolling_forecast(params, config, w.context, w.start, freq, horizon,
                                text_source, decimals)
        scores.append(metrics(pred, w.target[:horizon]))
    mse, mae = zip(*scores)
    return float(np.mean(mse)), float(np.mean(mae))


def forecast_report(dataset: str, per_horizon: dict, config: dict, seeds) -> dict:
    """Assemble the per-horizon table; averages are plain arithmetic means."""
    if not per_horizon:
        raise ConfigError("no horizons evaluated")
    return {
        "dataset": dataset,
        "horizons": dict(sorted(per_horizon.items())),
        "avg_mse": float(np.mean([v["mse"] for v in per_horizon.values()])),
        "avg_mae": float(np.mean([v["mae"] for v in per_horizon.values()])),
        "config": config,
        "seeds": list(seeds),
    }


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


def ablation_variants(config: ModelConfig) -> dict:
    """The four toggle rows, all sharing the base config's shape and seed.

    w/o Context zeroes the text embedding but keeps every parameter, so rows
    compare information content at equal capacity. w/o Fusion drops the gate
    parameter and passes the value pathway through (alpha fixed at 1).
    w/o MoE collapses to one ungated expert.
    """
    return {
        "Original": (config, "builtin"),
        "w/o Context": (config, "zero"),
        "w/o Fusion": (replace(config, fused=False), "builtin"),
        "w/o MoE": (replace(config, experts=1, gated=False), "builtin"),
    }


def ablation_run(train_windows, val_windows, freq, config: ModelConfig,
                 tconfig: TrainConfig, seeds=(0, 1, 2), text_seed: int = 0,
                 decimals: int = 4) -> dict:
    """Train all four ablation rows under each seed; report validation MSE/MAE.

    Returns {"rows": {row: {"per_seed_mse", "per_seed_mae", "mean_mse",
    "std_mse", "mean_mae", "std_mae"}}, "seeds", "config"}.
    """
    source = text_source("builtin", config.dim, text_seed)
    builtin = (assemble_windows(train_windows, freq, config.segment_len, source, decimals),
               assemble_windows(val_windows, freq, config.segment_len, source, decimals))
    datasets = {"builtin": builtin,
                "zero": tuple(replace(data, te=np.zeros_like(data.te)) for data in builtin)}
    rows = {}
    for row, (variant, text_mode) in ablation_variants(config).items():
        per_mse, per_mae = [], []
        for seed in seeds:
            seeded = replace(variant, seed=seed)
            tr, va = datasets[text_mode]
            result = train_model(init_params(seeded), seeded,
                                 replace(tconfig, seed=seed), tr, va)
            per_mse.append(result.best_val_mse)
            per_mae.append(result.best_val_mae)
        rows[row] = {
            "per_seed_mse": per_mse,
            "per_seed_mae": per_mae,
            "mean_mse": float(np.mean(per_mse)),
            "std_mse": float(np.std(per_mse)),
            "mean_mae": float(np.mean(per_mae)),
            "std_mae": float(np.std(per_mae)),
        }
    return {"rows": rows, "seeds": list(seeds), "config": asdict(config)}


def promotion_run(train_windows, val_windows, freq, config: ModelConfig,
                  tconfig: TrainConfig, sizes, text_seed: int = 0,
                  text_mode: str = "builtin", decimals: int = 4) -> dict:
    """Single-expert vs routed-experts comparison across backbone widths.

    For each hidden size, trains a one-expert ungated model and a gated
    model with config.experts experts, everything else identical, and
    reports the relative MSE/MAE reduction.
    """
    if not sizes:
        raise ConfigError("promotion needs at least one backbone size")
    table = []
    for dim in sizes:
        base = replace(config, dim=dim)
        source = text_source(text_mode, dim, text_seed)
        train_data = assemble_windows(train_windows, freq, base.segment_len, source, decimals)
        val_data = assemble_windows(val_windows, freq, base.segment_len, source, decimals)
        results = {}
        for label, variant in (
            ("original", replace(base, experts=1, gated=False)),
            ("moe", replace(base, gated=True)),
        ):
            result = train_model(init_params(variant), variant, tconfig, train_data, val_data)
            results[label] = {"mse": result.best_val_mse, "mae": result.best_val_mae}
        table.append({
            "size": dim,
            "original": results["original"],
            "moe": results["moe"],
            "promotion_mse": format_promotion(results["original"]["mse"], results["moe"]["mse"]),
            "promotion_mae": format_promotion(results["original"]["mae"], results["moe"]["mae"]),
            "promotion_mse_raw": promotion_percent(results["original"]["mse"], results["moe"]["mse"]),
        })
    return {"rows": table, "experts": config.experts, "config": asdict(config)}


def sweep_run(values, run_one) -> dict:
    """One full train+eval per value; run_one(value) returns (mse, mae)."""
    if not values:
        raise ConfigError("sweep needs at least one value")
    curve = []
    for value in values:
        mse, mae = run_one(value)
        curve.append({"value": value, "mse": float(mse), "mae": float(mae)})
    best = min(curve, key=lambda row: row["mse"])
    return {"curve": curve, "best_value": best["value"], "best_mse": best["mse"]}


def render_table(headers, rows) -> str:
    """Fixed-width text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
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
    rows = [[h, f"{v['mse']:.4f}", f"{v['mae']:.4f}"] for h, v in report["horizons"].items()]
    rows.append(["avg", f"{report['avg_mse']:.4f}", f"{report['avg_mae']:.4f}"])
    return render_table(["horizon", "MSE", "MAE"], rows)
