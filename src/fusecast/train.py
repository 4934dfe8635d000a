"""Compound loss, AdamW, and the seeded teacher-forced training loop.

Each window is a sequence of N segments; position i is trained to predict
segment i+1, so N-1 positions per window carry a loss. The loss adds a
sparsity penalty on the gate matrix. In literal mode the penalty is the
entrywise L1 norm of the row-stochastic gate, which is constant (it always
equals the number of rows) and therefore contributes zero gradient up to rounding;
it is kept as a selectable mode so the constancy is demonstrable. Entropy
mode actually pushes gate rows toward one-hot. Either mode at lambda 0 trains
on the mean squared error alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .descriptors import render_prompt, segment_series
from .errors import ConfigError, NonFiniteGradient, ShapeError
from .model import ModelConfig, backward, forward, init_params

SPARSITY_MODES = ("literal", "entropy")
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # AdamW's moment decays and denominator floor


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    lam: float = 0.1  # sparsity penalty weight
    epochs: int = 10
    batch: int = 32
    seed: int = 0
    sparsity_mode: str = "literal"
    max_steps: int = 0  # optimizer-step cap; 0 means none

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
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
    """One AdamW update with no weight decay (plain Adam), in place."""
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
        params[name] -= config.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)


def window_segments(values, start, freq, segment_len: int):
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
    prompts = [render_prompt(seg) for seg in segments]
    return np.stack([seg.values for seg in segments]), prompts


@dataclass
class WindowTensors:
    """Windows as a table of distinct segments: window w's N segments are rows[w]
    of values and text, and forward(values, text, rows=...) gathers the windows."""

    values: np.ndarray  # (U, S) distinct segment values
    text: np.ndarray  # (U, D) their prompt embeddings
    rows: np.ndarray  # (W, N) intp index into values and text
    windows: list  # the W windows themselves, not copied: validation reads their targets


def assemble_windows(windows, freq, segment_len: int, text_source) -> WindowTensors:
    """Every window's segments as a table that stores each distinct one once.

    A segment's key is (prompt, value bytes): equal keys hold equal values and
    embed to an equal vector, so a window's rows are its window_segments, embedded, bit for bit.
    The values are the keys' bytes, and no future is copied: training reads none, and
    train_model stacks the val windows' targets once.
    """
    if not windows:
        raise ConfigError("no windows to assemble")
    table, text = {}, []
    for i, w in enumerate(windows):
        x, prompts = window_segments(w.context, w.start, freq, segment_len)
        shape = (len(prompts), len(w.target[:segment_len]))
        if i == 0:
            rows, first = np.empty((len(windows), len(prompts)), dtype=np.intp), shape
        elif shape != first:
            raise ShapeError(f"window {i} has {shape[0]} segments and {shape[1]} future "
                             f"values, window 0 has {first[0]} and {first[1]}")
        for j, (segment, prompt) in enumerate(zip(x, prompts)):
            vector = text_source.embed(prompt)  # every prompt, as rolling_forecast does
            row = rows[i, j] = table.setdefault((prompt, segment.tobytes()), len(table))
            if row == len(text):
                text.append(vector)
    values = np.frombuffer(b"".join(raw for _, raw in table), dtype=np.float64)
    return WindowTensors(values=values.reshape(len(table), -1), text=np.array(text),
                         rows=rows, windows=windows)


def _batch_step(params, mconfig, tconfig, values, text, rows):
    """Forward and loss on a table's `rows`; returns (trace, total, d_pred, d_gate)."""
    trace = forward(params, mconfig, values, text, rows=rows)
    # position i predicts segment i + 1, so the final position is not scored
    total, _, _, d_scored_pred, d_scored_gate = compute_loss(
        trace.x[:, 1:, :], trace.pred[:, :-1, :], trace.gate[:, :-1, :],
        tconfig.lam, tconfig.sparsity_mode,
    )
    d_pred = np.zeros_like(trace.pred)
    d_pred[:, :-1, :] = d_scored_pred
    d_gate = np.zeros_like(trace.gate)
    d_gate[:, :-1, :] = d_scored_gate
    return trace, total, d_pred, d_gate


def _train_step(params, mconfig, tconfig, state, values, text, rows) -> float:
    """Forward, backward and one AdamW update on a table's `rows`; returns the loss.

    The trace and gradients die with this frame, so validation never holds
    them as well.
    """
    trace, total, d_pred, d_gate = _batch_step(params, mconfig, tconfig, values, text, rows)
    adamw_step(params, backward(params, mconfig, trace, d_pred, d_gate), state, tconfig)
    return total


def evaluate_windows(params, mconfig: ModelConfig, data: WindowTensors, targets):
    """Forecast quality of the final position against `targets`, each window's true future.

    Returns (mse, mae, mean gate entropy, alpha). `targets` (W, F) hold at most segment_len
    future values, all scored; longer horizons need autoregressive rolling and are the
    evaluation module's job. The forward keeps no trace and gathers its slabs from the
    table itself, so the windows are never gathered whole.
    """
    trace = forward(params, mconfig, data.values, data.text, keep_trace=False, rows=data.rows)
    mse, mae = metrics(trace.pred[:, -1, :targets.shape[1]], targets)
    entropy = float(-(trace.gate * _gate_log(trace.gate)).sum(axis=-1).mean())
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
    if train_data.rows.shape[1] < 2:
        raise ConfigError("teacher-forced training needs at least 2 segments per window")
    state = init_opt_state(params)
    result = TrainResult(params={})  # epoch 0 always fills it, since a diverged epoch raises
    targets = np.stack([w.target[:mconfig.segment_len] for w in val_data.windows])
    n_windows = len(train_data.rows)
    done = False
    for epoch in range(tconfig.epochs):
        order = np.random.default_rng([tconfig.seed, epoch]).permutation(n_windows)
        batch_losses = []
        for lo in range(0, n_windows, tconfig.batch):
            rows = train_data.rows[order[lo : lo + tconfig.batch]]
            batch_losses.append(_train_step(params, mconfig, tconfig, state,
                                            train_data.values, train_data.text, rows))
            if tconfig.max_steps and state.step >= tconfig.max_steps:
                done = True
                break
        val_mse, val_mae, entropy, alpha = evaluate_windows(params, mconfig, val_data, targets)
        loss = float(np.mean(batch_losses))
        if not (math.isfinite(loss) and math.isfinite(val_mse)):  # a diverged run is not kept
            raise ConfigError(f"train loss {loss} and validation MSE {val_mse} at epoch {epoch}: "
                              "training diverged; lower lr or lambda")
        result.curve.append({
            "epoch": epoch,
            "train_loss": loss,
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


def gradient_check(seed: int = 0, h: float = 1e-5) -> dict:
    """Analytic vs central-finite-difference gradients on a tiny model.

    The full training loss, entropy penalty included, on three windows that share
    rows of a segment table, gathered as a stride-1 train step gathers them. Returns
    {parameter block: max relative error}; above 1e-4 means a backward-pass bug.
    """
    if not 0.0 < h < float("inf"):
        raise ConfigError(f"finite-difference step h must be finite and > 0, got {h}")
    mconfig = ModelConfig(seed=seed, **GRADCHECK_CONFIG)
    tconfig = TrainConfig(lam=0.05, sparsity_mode="entropy", seed=seed)
    rng = np.random.default_rng([seed, 2718281828])
    values = rng.normal(size=(5, mconfig.segment_len))
    text = rng.normal(size=(5, mconfig.dim)) / np.sqrt(mconfig.dim)
    rows = np.arange(3)[:, None] + np.arange(3)  # window b is segments b..b+2
    params = init_params(mconfig)
    trace, _, d_pred, d_gate = _batch_step(params, mconfig, tconfig, values, text, rows)
    analytic = backward(params, mconfig, trace, d_pred, d_gate)

    def loss_now():
        return _batch_step(params, mconfig, tconfig, values, text, rows)[1]

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
