"""Compound loss, AdamW, and the seeded teacher-forced training loop.

Each window is a sequence of N segments; position i is trained to predict
segment i+1, so N-1 positions per window carry a loss. The loss adds a
sparsity penalty on the gate matrix. In literal mode the penalty is the
entrywise L1 norm of the row-stochastic gate, which is constant (it always
equals the number of rows) and therefore contributes zero gradient up to rounding;
it is kept as a selectable mode so the constancy is demonstrable. Entropy
mode actually pushes gate rows toward one-hot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .descriptors import render_prompt, segment_series
from .errors import ConfigError, NonFiniteGradient, ShapeError
from .model import ModelConfig, backward, forward, init_params

SPARSITY_MODES = ("literal", "entropy", "none")
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # AdamW's moment decays and denominator floor


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    lam: float = 0.1  # sparsity penalty weight
    epochs: int = 10
    batch: int = 32
    seed: int = 0
    sparsity_mode: str = "literal"
    weight_decay: float = 0.0
    max_steps: int = 0  # optimizer-step cap; 0 means none

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.sparsity_mode not in SPARSITY_MODES:
            raise ConfigError(f"sparsity_mode must be one of {SPARSITY_MODES}")
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0 (0 = no cap), got {self.max_steps}")


def _gate_log(gate_weights):
    """Log of the gate weights, floored so a saturated (exactly 0) weight stays finite."""
    return np.log(np.maximum(gate_weights, 1e-300))


def compute_loss(targets, predictions, gate_weights, lam: float, mode: str):
    """Mean squared error plus the gate sparsity penalty, with its own gradients.

    targets, predictions: (..., S); gate_weights: (..., K), one row per scored
    position. Returns (total, mse_part, exp_part, d(total)/d(predictions),
    d(exp_part)/d(gate_weights)).
    """
    targets = np.asarray(targets, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    gate_weights = np.asarray(gate_weights, dtype=np.float64)
    if targets.ndim < 2 or targets.shape != predictions.shape:
        raise ShapeError(f"targets {targets.shape} vs predictions {predictions.shape}")
    if gate_weights.shape[:-1] != targets.shape[:-1]:
        raise ShapeError(f"gate rows {gate_weights.shape} vs target rows {targets.shape}")
    diff = predictions - targets
    mse_part = float((diff * diff).sum() / targets.size)
    if mode == "literal":
        exp_part = lam * float(np.abs(gate_weights).sum())
        d_gate = lam * np.sign(gate_weights)
    elif mode == "entropy":
        log_w = _gate_log(gate_weights)
        exp_part = lam * float(-(gate_weights * log_w).sum())
        d_gate = lam * (-(log_w + 1.0))
    elif mode == "none":
        exp_part = 0.0
        d_gate = np.zeros_like(gate_weights)
    else:
        raise ConfigError(f"unknown sparsity mode {mode!r}")
    return mse_part + exp_part, mse_part, exp_part, 2.0 * diff / targets.size, d_gate


def metrics(pred, truth):
    """(mean squared error, mean absolute error) over aligned arrays."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    diff = pred - truth
    return float((diff * diff).mean()), float(np.abs(diff).mean())


@dataclass
class OptState:
    m: dict
    v: dict
    step: int = 0


def init_opt_state(params: dict) -> OptState:
    return OptState(
        m={name: np.zeros_like(value) for name, value in params.items()},
        v={name: np.zeros_like(value) for name, value in params.items()},
    )


def adamw_step(params: dict, grads: dict, state: OptState, config: TrainConfig):
    """One AdamW update, in place. Weight decay is decoupled; theta is exempt
    (decaying the fusion gate logit would bias alpha toward 0.5 for no reason).
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    for name in sorted(params):
        grad = grads[name]
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradient(f"non-finite gradient at step {t}", param=name)
        m = state.m[name]
        v = state.v[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * grad
        v *= _BETA2
        v += (1.0 - _BETA2) * grad * grad
        if config.weight_decay and name != "theta":
            params[name] *= 1.0 - config.lr * config.weight_decay
        params[name] -= config.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)


def window_segments(values, start, freq, segment_len: int, decimals: int = 4):
    """Segment one context window and render its prompts.

    The window is trimmed from the front to a multiple of segment_len so the
    final segment ends exactly at the context end; next-segment predictions
    then line up with the true future. Returns (x (N, S), prompts).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0] // segment_len
    if n < 1:
        raise ConfigError(f"context of {values.shape[0]} values < one segment of {segment_len}")
    trim = values.shape[0] - n * segment_len
    segments = segment_series(values[trim:], start + trim * freq, segment_len, freq)
    prompts = [render_prompt(seg, decimals) for seg in segments]
    return np.stack([seg.values for seg in segments]), prompts


def window_tensors(values, start, freq, segment_len: int, text_source, decimals: int = 4):
    """window_segments with its prompts embedded: (x (N, S), te (N, D))."""
    x, prompts = window_segments(values, start, freq, segment_len, decimals)
    return x, np.stack([text_source.embed(p) for p in prompts])


@dataclass
class WindowTensors:
    """A set of windows ready for the model: stacked segments, text, futures."""

    x: np.ndarray  # (W, N, S)
    te: np.ndarray  # (W, N, D)
    future: np.ndarray  # (W, F) true continuation of each window; F <= S once assembled


def assemble_windows(windows, freq, segment_len: int, text_source, decimals: int = 4) -> WindowTensors:
    """Every window's tensors, copied into arrays the first window sizes, so
    no per-window list is left behind as freed heap before the first forward.
    A future keeps its first segment only, the span evaluate_windows scores."""
    if not windows:
        raise ConfigError("no windows to assemble")
    data = None
    for i, w in enumerate(windows):
        x, te = window_tensors(w.context, w.start, freq, segment_len, text_source, decimals)
        future = w.target[:segment_len]
        if data is None:
            count = len(windows)
            data = WindowTensors(x=np.empty((count,) + x.shape), te=np.empty((count,) + te.shape),
                                 future=np.empty((count,) + future.shape))
        data.x[i], data.te[i], data.future[i] = x, te, future
    return data


def _batch_step(params, mconfig, tconfig, x, te):
    """Forward and loss on one batch; returns (trace, total, d_pred, d_gate) for backward."""
    trace = forward(params, mconfig, x, te)
    # position i predicts segment i + 1, so the final position is not scored
    total, _, _, d_scored_pred, d_scored_gate = compute_loss(
        x[:, 1:, :], trace.pred[:, :-1, :], trace.gate.weights[:, :-1, :],
        tconfig.lam, tconfig.sparsity_mode,
    )
    d_pred = np.zeros_like(trace.pred)
    d_pred[:, :-1, :] = d_scored_pred
    d_gate = np.zeros_like(trace.gate.weights)
    d_gate[:, :-1, :] = d_scored_gate
    return trace, total, d_pred, d_gate


def _train_step(params, mconfig, tconfig, state, x, te) -> float:
    """Forward, backward and one AdamW update on a batch; returns its loss.

    The trace and gradients die with this frame, so validation never holds
    them as well.
    """
    trace, total, d_pred, d_gate = _batch_step(params, mconfig, tconfig, x, te)
    adamw_step(params, backward(params, mconfig, trace, d_pred, d_gate), state, tconfig)
    return total


def evaluate_windows(params, mconfig: ModelConfig, data: WindowTensors):
    """Forecast quality of the final position against each window's true future.

    Returns (mse, mae, mean gate entropy, alpha). Only the first
    min(segment_len, F) future values are scored; longer horizons need
    autoregressive rolling and are the evaluation module's job. No backward
    follows, so the forward keeps no trace.
    """
    trace = forward(params, mconfig, data.x, data.te, keep_trace=False)
    horizon = min(mconfig.segment_len, data.future.shape[1])
    mse, mae = metrics(trace.pred[:, -1, :horizon], data.future[:, :horizon])
    weights = trace.gate.weights
    entropy = float(-(weights * _gate_log(weights)).sum(axis=-1).mean())
    return mse, mae, entropy, trace.alpha


@dataclass
class TrainResult:
    params: dict  # best-validation parameters
    curve: list = field(default_factory=list)  # per-epoch stat dicts
    best_epoch: int = -1
    best_val_mse: float = np.inf
    best_val_mae: float = np.inf
    steps: int = 0


def train_model(params: dict, mconfig: ModelConfig, tconfig: TrainConfig,
                train_data: WindowTensors, val_data: WindowTensors) -> TrainResult:
    """Seeded mini-batch training with best-validation checkpointing.

    Shuffle order is drawn from a generator seeded by (seed, epoch), so runs
    are bitwise reproducible and epochs are independent of each other's
    consumption of random numbers.
    """
    if train_data.x.shape[1] < 2:
        raise ConfigError("teacher-forced training needs at least 2 segments per window")
    state = init_opt_state(params)
    result = TrainResult(params={k: v.copy() for k, v in params.items()})
    n_windows = train_data.x.shape[0]
    done = False
    for epoch in range(tconfig.epochs):
        order = np.random.default_rng([tconfig.seed, epoch]).permutation(n_windows)
        batch_losses = []
        for lo in range(0, n_windows, tconfig.batch):
            idx = order[lo : lo + tconfig.batch]
            batch_losses.append(_train_step(params, mconfig, tconfig, state,
                                            train_data.x[idx], train_data.te[idx]))
            if tconfig.max_steps and state.step >= tconfig.max_steps:
                done = True
                break
        val_mse, val_mae, entropy, alpha = evaluate_windows(params, mconfig, val_data)
        result.curve.append({
            "epoch": epoch,
            "train_loss": float(np.mean(batch_losses)),
            "val_mse": val_mse,
            "val_mae": val_mae,
            "mean_gate_entropy": entropy,
            "alpha": alpha,
        })
        if val_mse < result.best_val_mse:
            result.best_val_mse = val_mse
            result.best_val_mae = val_mae
            result.best_epoch = epoch
            result.params = {k: v.copy() for k, v in params.items()}
        if done:
            break
    result.steps = state.step
    return result


GRADCHECK_CONFIG = dict(segment_len=4, dim=8, experts=2, layers=1, heads=1)


def gradient_check(seed: int = 0, h: float = 1e-5, sparsity_mode: str = "entropy",
                   lam: float = 0.05) -> dict:
    """Analytic vs central-finite-difference gradients on a tiny model.

    Uses the full training loss (entropy penalty by default, so the gate path
    carries a real gradient). Returns {parameter block: max relative error};
    anything above 1e-4 indicates a backward-pass bug.
    """
    if not 0.0 < h < float("inf"):
        raise ConfigError(f"finite-difference step h must be finite and > 0, got {h}")
    mconfig = ModelConfig(seed=seed, **GRADCHECK_CONFIG)
    tconfig = TrainConfig(lam=lam, sparsity_mode=sparsity_mode, seed=seed)
    rng = np.random.default_rng([seed, 2718281828])
    batch, n = 3, 3
    x = rng.normal(size=(batch, n, mconfig.segment_len))
    te = rng.normal(size=(batch, n, mconfig.dim)) / np.sqrt(mconfig.dim)
    params = init_params(mconfig)
    trace, _, d_pred, d_gate = _batch_step(params, mconfig, tconfig, x, te)
    analytic = backward(params, mconfig, trace, d_pred, d_gate)

    def loss_now():
        return _batch_step(params, mconfig, tconfig, x, te)[1]

    report = {}
    for name, value in params.items():
        flat = value.reshape(-1)  # view: edits hit the live parameter
        numeric = np.zeros(flat.shape)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            up = loss_now()
            flat[i] = saved - h
            down = loss_now()
            flat[i] = saved
            numeric[i] = (up - down) / (2.0 * h)
        a = analytic[name].reshape(-1)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-6)
        report[name] = float((np.abs(a - numeric) / scale).max())
    return report
