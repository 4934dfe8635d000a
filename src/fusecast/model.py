"""Forward and backward passes of the fused mixture-of-experts forecaster.

Pipeline per window: embed each segment's values (linear + exact GeLU), fuse
with the prompt embedding through a sigmoid-gated convex combination,
contextualize with a small stack of pre-norm causal attention blocks, route
through softmax-gated linear experts, and project each position's output to
a next-segment prediction. Gradients are computed by hand in reverse mode;
no autograd framework is involved, which keeps every update auditable and
lets tests pin each block against finite differences.

All math is float64. Forward passes are pure functions of (params, inputs).
The GeLU's erf is fdlibm's (glibc's, so math.erf's) ported to NumPy, within 1 ulp.

The forward trace keeps each activation in one form. Values one op away from a
kept one (GeLU and layer-norm outputs, the attention context, s_hat) are
rebuilt with forward's own expressions, so gradients stay bit-identical.

A forward that no backward follows (validation scoring, rolling forecasts)
passes keep_trace=False. That is the full forward run one slab of _SLAB_ROWS
windows at a time, keeping three outputs of each slab: pred, the gate weights
and alpha. Its memory is one slab's trace plus the outputs, whatever the batch
size. Train steps and validation pass a table of distinct segments and a row
index; forward alone gathers windows from it, for validation one slab at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, fields
from typing import Optional

import numpy as np

from .errors import ConfigError

_LN_EPS = 1e-5
_CHECKPOINT_FORMAT = "fusecast-ckpt v1"
_MAX_PARAMS = 2**25  # params, best params, grads and two AdamW moments: 1.3 GB of float64
_ARRAY_COST = 26  # parameters' worth of what an array holds beside its values: 204 bytes (README)


@dataclass(frozen=True)
class ModelConfig:
    segment_len: int = 24
    dim: int = 64
    experts: int = 4
    layers: int = 2
    heads: int = 2
    seed: int = 0
    gated: bool = True
    fused: bool = True

    def __post_init__(self):
        if self.segment_len < 1:
            raise ConfigError(f"segment_len must be >= 1, got {self.segment_len}")
        if self.dim < 1:
            raise ConfigError(f"hidden_dim must be >= 1, got {self.dim}")
        if self.experts < 1:
            raise ConfigError(f"experts must be >= 1, got {self.experts}")
        if self.layers < 0:
            raise ConfigError(f"layers must be >= 0, got {self.layers}")
        if self.layers > 0 and (self.heads < 1 or self.dim % self.heads != 0):
            raise ConfigError(f"heads must divide hidden_dim, got hidden_dim={self.dim} "
                              f"heads={self.heads}")
        if not self.gated and self.experts != 1:
            raise ConfigError(f"gated false needs experts 1, got experts={self.experts}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # every block has the same shapes, so the count needs no per-block list; each array
        # adds _ARRAY_COST, so many small arrays (a deep, narrow model) are bounded too
        base, block = (sum(math.prod(shape) + _ARRAY_COST
                           for shape in param_shapes(self, layers=n).values()) for n in (0, 1))
        count = base + self.layers * (block - base)
        if count > _MAX_PARAMS:
            raise ConfigError(f"the model counts as {count:,} parameters ({_ARRAY_COST} per array "
                              f"beside its values), more than the {_MAX_PARAMS:,} allowed; "
                              "lower hidden_dim, experts, layers or segment_len")


# The erf regions and coefficients are fdlibm's s_erf.c, which carries this notice:
#   Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved. Developed at SunPro,
#   a Sun Microsystems, Inc. business. Permission to use, copy, modify, and distribute this
#   software is freely granted, provided that this notice is preserved.
_ERX = 0.8450629115104675
_ERF_SMALL_P = (0.12837916709551256, -0.3250421072470015, -0.02848174957559851,
                -0.005770270296489442, -2.3763016656650163e-05)
_ERF_SMALL_Q = (1.0, 0.39791722395915535, 0.0650222499887673, 0.005081306281875766,
                0.00013249473800432164, -3.960228278775368e-06)
_ERF_MID_P = (-0.0023621185607526594, 0.41485611868374833, -0.3722078760357013, 0.31834661990116175,
              -0.11089469428239668, 0.035478304325618236, -0.002166375594868791)
_ERF_MID_Q = (1.0, 0.10642088040084423, 0.540397917702171, 0.07182865441419627, 0.12617121980876164,
              0.01363708391202905, 0.011984499846799107)
_ERF_NEAR_P = (-0.009864944034847148, -0.6938585727071818, -10.558626225323291, -62.375332450326006,
               -162.39666946257347, -184.60509290671104, -81.2874355063066, -9.814329344169145)
_ERF_NEAR_Q = (1.0, 19.651271667439257, 137.65775414351904, 434.56587747522923, 645.3872717332679,
               429.00814002756783, 108.63500554177944, 6.570249770319282, -0.0604244152148581)
_ERF_FAR_P = (-0.0098649429247001, -0.799283237680523, -17.757954917754752, -160.63638485582192,
              -637.5664433683896, -1025.0951316110772, -483.5191916086514)
_ERF_FAR_Q = (1.0, 30.33806074348246, 325.7925129965739, 1536.729586084437, 3199.8582195085955,
              2553.0504064331644, 474.52854120695537, -22.44095244658582)
_ERF_SMALL = float.fromhex("0x1.affffffffffffp-1")  # the largest double below 0.84375
_ERF_SPLIT = float.fromhex("0x1.6db6ep+1")  # fdlibm's 1/0.35 bound, high word 0x4006DB6E
_ERF_CHUNK = 8192  # values per pass, which bounds the temporaries
_SLAB_ROWS = 32  # windows per pass of a forward that keeps no trace: a train step's batch


def _horner(t, coefs):
    """sum(coefs[i] * t**i), nested from the top power down as fdlibm writes it, in place."""
    p = t * coefs[-1]
    for c in coefs[-2:0:-1]:
        p += c
        p *= t
    return p + coefs[0]


def _erf(x):
    """Float64 erf of any shape, in flat chunks of fdlibm's four |x| regions."""
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    out = np.empty(flat.shape)
    rest = []
    for lo in range(0, flat.size, _ERF_CHUNK):  # the |x| < 0.84375 formula on every value
        chunk = flat[lo:lo + _ERF_CHUNK]
        # np.clip's bounds: moves every |x| >= 0.84375, and nan, without the wrapper's cost
        head = np.minimum(np.maximum(chunk, -_ERF_SMALL), _ERF_SMALL)
        z = head * head
        y = _horner(z, _ERF_SMALL_P)
        y /= _horner(z, _ERF_SMALL_Q)
        np.add(head, np.multiply(head, y, out=y), out=out[lo:lo + _ERF_CHUNK])
        rest.append(lo + (head != chunk).nonzero()[0])
    if not any(idx.size for idx in rest):
        return out.reshape(np.shape(x))[()]
    rest = rest[0] if len(rest) == 1 else np.concatenate(rest)
    for lo in range(0, rest.size, _ERF_CHUNK):  # each region redoes the values past its bound
        idx = rest[lo:lo + _ERF_CHUNK]
        u = flat[idx]
        v = np.minimum(np.abs(u), 6.0)  # erf rounds to 1 from 6 on, so inf takes 6's value
        s = v - 1.0
        res = _ERX + _horner(s, _ERF_MID_P) / _horner(s, _ERF_MID_Q)
        for bound, p, q in ((1.25, _ERF_NEAR_P, _ERF_NEAR_Q), (_ERF_SPLIT, _ERF_FAR_P, _ERF_FAR_Q)):
            sel = (v >= bound).nonzero()[0]
            if not sel.size:  # the bounds ascend, so no value reaches the next one either
                break
            t = v[sel]  # exp(-t*t) splits at z, t's high word, so that z*z is exact
            s = 1.0 / (t * t)
            z = (t.view(np.uint64) & np.uint64(0xFFFFFFFF00000000)).view(np.float64)
            r = np.exp((z - t) * (z + t) + _horner(s, p) / _horner(s, q))
            res[sel] = 1.0 - np.exp(-0.5625 - z * z) * r / t
        out[idx] = np.copysign(res, u)
    return out.reshape(np.shape(x))[()]


def _gelu(x):
    """(GeLU(x), phi) with phi = Phi(x) the Gaussian CDF factor, which backward reuses."""
    phi = 0.5 * (1.0 + _erf(x / np.sqrt(2.0)))
    return x * phi, phi


def _gelu_grad(x, phi):
    return phi + x * (np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi))


def sigmoid(x: float) -> float:
    """Logistic of a scalar; exp only ever sees a non-positive argument."""
    if x >= 0:
        return float(1.0 / (1.0 + np.exp(-x)))
    ex = np.exp(x)
    return float(ex / (1.0 + ex))


def _softmax(x, axis=-1):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def _softmax_grad(d_out, softmax_out, axis=-1):
    inner = (d_out * softmax_out).sum(axis=axis, keepdims=True)
    return softmax_out * (d_out - inner)


def param_shapes(config: ModelConfig, *, layers=None) -> dict:
    """Every parameter block's shape, in creation order; `layers` overrides config.layers."""
    s, d, k = config.segment_len, config.dim, config.experts
    shapes = {"seg_W": (s, d), "seg_b": (d,)}
    if config.fused:
        shapes["theta"] = ()
    for layer in range(config.layers if layers is None else layers):
        shapes[f"ln1_{layer}"] = (d,)
        shapes[f"attn_Wq_{layer}"] = (d, d)
        shapes[f"attn_Wk_{layer}"] = (d, d)
        shapes[f"attn_Wv_{layer}"] = (d, d)
        shapes[f"attn_Wo_{layer}"] = (d, d)
        shapes[f"ln2_{layer}"] = (d,)
        shapes[f"ff_W1_{layer}"] = (d, 2 * d)
        shapes[f"ff_b1_{layer}"] = (2 * d,)
        shapes[f"ff_W2_{layer}"] = (2 * d, d)
        shapes[f"ff_b2_{layer}"] = (d,)
    if config.gated:
        shapes["gate_W"] = (d, k)
        shapes["gate_b"] = (k,)
    shapes["experts_W"] = (k, d, d)
    shapes["out_W"] = (d, s)
    shapes["out_b"] = (s,)
    return shapes


def init_params(config: ModelConfig) -> dict:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases.

    Norm scales start at 1 and theta at 0 so fusion opens balanced (alpha=0.5).
    Draw order is fixed by param_shapes, so identical configs are bitwise
    reproducible.
    """
    rng = np.random.default_rng(config.seed)
    params = {}
    for name, shape in param_shapes(config).items():
        if name.startswith("ln"):
            params[name] = np.ones(shape)
        elif len(shape) <= 1:
            params[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[-2])  # fan-in: (in, out) and (K, in, out)
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def _blend(weights, experts_out):
    """s_hat: each position's gate-weighted sum of its expert outputs."""
    return (weights[..., None, :] @ experts_out)[..., 0, :]


@dataclass
class ForwardTrace:
    """Every intermediate the backward pass consumes, each stored once.

    `se` and `s_hat` are rebuilt on read. Each block cache keeps xhat, inv, q,
    k, v, attn, ff_pre and ff_phi; backward rebuilds y1, y2, ctx and ff_act.
    A trace-free forward (keep_trace=False) runs the full forward one slab at a
    time and keeps three outputs: it fills only config, alpha, gate and pred;
    the rest stay None, and backward, `se` and `s_hat` raise ConfigError.
    """

    config: ModelConfig
    alpha: float
    gate: np.ndarray  # (B, N, K) row-stochastic expert weights, one row per position
    pred: np.ndarray  # (B, N, S)
    x: Optional[np.ndarray] = None  # (B, N, S) segment values
    te: Optional[np.ndarray] = None  # (B, N, D) text embeddings
    se_pre: Optional[np.ndarray] = None
    se_phi: Optional[np.ndarray] = None  # GeLU's Gaussian CDF factor at se_pre
    layers: Optional[tuple] = None  # per-block intermediates
    e_hat: Optional[np.ndarray] = None
    experts_out: Optional[np.ndarray] = None  # (B, N, K, D)

    def _kept(self, value):
        if value is None:
            raise ConfigError("a forward with keep_trace=False keeps nothing for backward")
        return value

    @property
    def se(self) -> np.ndarray:
        """The segment embedding GeLU(se_pre), as _gelu computes it."""
        return self._kept(self.se_pre) * self.se_phi

    @property
    def s_hat(self) -> np.ndarray:
        """The gate blend of experts_out, as moe_forward computes it."""
        return _blend(self.gate, self._kept(self.experts_out))


def _segment_embed(values, params):
    """SE = GeLU(values @ seg_W + seg_b); returns (pre-activation, SE, phi) for backward."""
    seg_w = params["seg_W"]
    if values.shape[-1] != seg_w.shape[0]:
        raise ConfigError(f"segment length {values.shape[-1]} != seg_W rows {seg_w.shape[0]}")
    pre = values @ seg_w + params["seg_b"]
    return (pre, *_gelu(pre))


def fuse(se, te, theta):
    """Convex combination E = alpha*SE + (1-alpha)*TE with alpha = sigmoid(theta)."""
    se = np.asarray(se, dtype=np.float64)
    te = np.asarray(te, dtype=np.float64)
    if se.shape != te.shape:
        raise ConfigError(f"fusion inputs {se.shape} vs {te.shape}")
    alpha = sigmoid(float(theta))
    return alpha * se + (1.0 - alpha) * te, alpha


def _split_heads(x, heads):
    b, n, d = x.shape
    return x.reshape(b, n, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * dh)


def _layer_norm(x, scale):
    """Scale-only pre-norm: center, normalize, multiply by a learned gain.

    The means are the sums ndarray.mean takes, over d, without its wrapper's cost.
    """
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    centered = x - mu
    inv = 1.0 / np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) / d + _LN_EPS)
    xhat = centered * inv
    return scale * xhat, xhat, inv


def _layer_norm_backward(d_out, scale, xhat, inv):
    d_scale = (d_out * xhat).sum(axis=(0, 1))
    d_xhat = d_out * scale
    mean_d = d_xhat.mean(axis=-1, keepdims=True)
    mean_dx = (d_xhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (d_xhat - mean_d - xhat * mean_dx), d_scale


def _weight_grad(x, d_y):
    """Gradient of W in y = x @ W, summed over every leading axis: one 2-D GEMM."""
    return x.reshape(-1, x.shape[-1]).T @ d_y.reshape(-1, d_y.shape[-1])


def _block_forward(x, params, config, layer):
    h = config.heads
    scale = 1.0 / np.sqrt(config.dim // h)
    y1, xhat1, inv1 = _layer_norm(x, params[f"ln1_{layer}"])
    q = _split_heads(y1 @ params[f"attn_Wq_{layer}"], h)
    k = _split_heads(y1 @ params[f"attn_Wk_{layer}"], h)
    v = _split_heads(y1 @ params[f"attn_Wv_{layer}"], h)
    del y1  # backward rebuilds it from xhat1, as it does y2 and ctx below
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    n = x.shape[1]
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    scores = np.where(mask, -np.inf, scores)
    attn = _softmax(scores, axis=-1)
    x_mid = x + _merge_heads(attn @ v) @ params[f"attn_Wo_{layer}"]
    y2, xhat2, inv2 = _layer_norm(x_mid, params[f"ln2_{layer}"])
    ff_pre = y2 @ params[f"ff_W1_{layer}"] + params[f"ff_b1_{layer}"]
    del y2
    ff_act, ff_phi = _gelu(ff_pre)
    out = ff_act @ params[f"ff_W2_{layer}"]
    out += x_mid  # in place, with the operand pairs of x_mid + ff_act @ W2 + b2
    out += params[f"ff_b2_{layer}"]
    cache = {
        "xhat1": xhat1, "inv1": inv1, "q": q, "k": k, "v": v, "attn": attn,
        "xhat2": xhat2, "inv2": inv2, "ff_pre": ff_pre, "ff_phi": ff_phi,
    }
    return out, cache


def _block_backward(d_out, params, config, layer, cache, grads):
    h = config.heads
    scale = 1.0 / np.sqrt(config.dim // h)
    # feed-forward sublayer
    grads[f"ff_b2_{layer}"] = d_out.sum(axis=(0, 1))
    grads[f"ff_W2_{layer}"] = _weight_grad(cache["ff_pre"] * cache["ff_phi"], d_out)  # ff_act
    d_ff_pre = (d_out @ params[f"ff_W2_{layer}"].T) * _gelu_grad(cache["ff_pre"], cache["ff_phi"])
    grads[f"ff_b1_{layer}"] = d_ff_pre.sum(axis=(0, 1))
    y2 = params[f"ln2_{layer}"] * cache["xhat2"]
    grads[f"ff_W1_{layer}"] = _weight_grad(y2, d_ff_pre)
    d_y2 = d_ff_pre @ params[f"ff_W1_{layer}"].T
    del d_ff_pre, y2  # each temporary goes at its last use, so the peak holds only live ones
    d_x_mid, grads[f"ln2_{layer}"] = _layer_norm_backward(
        d_y2, params[f"ln2_{layer}"], cache["xhat2"], cache["inv2"]
    )
    del d_y2
    d_x_mid = d_x_mid + d_out  # residual
    # attention sublayer
    ctx = _merge_heads(cache["attn"] @ cache["v"])
    grads[f"attn_Wo_{layer}"] = _weight_grad(ctx, d_x_mid)
    del ctx
    d_ctx = _split_heads(d_x_mid @ params[f"attn_Wo_{layer}"].T, h)
    d_attn = d_ctx @ cache["v"].transpose(0, 1, 3, 2)
    d_v = cache["attn"].transpose(0, 1, 3, 2) @ d_ctx
    del d_ctx
    d_scores = _softmax_grad(d_attn, cache["attn"])  # masked cells carry zero weight
    d_q = (d_scores @ cache["k"]) * scale
    d_k = (d_scores.transpose(0, 1, 3, 2) @ cache["q"]) * scale
    del d_attn, d_scores
    y1 = params[f"ln1_{layer}"] * cache["xhat1"]
    d_y1 = np.zeros_like(y1)
    for name, d_proj in (("attn_Wq", d_q), ("attn_Wk", d_k), ("attn_Wv", d_v)):
        merged = _merge_heads(d_proj)
        grads[f"{name}_{layer}"] = _weight_grad(y1, merged)
        d_y1 += merged @ params[f"{name}_{layer}"].T
    d_x, grads[f"ln1_{layer}"] = _layer_norm_backward(
        d_y1, params[f"ln1_{layer}"], cache["xhat1"], cache["inv1"]
    )
    return d_x + d_x_mid


def backbone_forward(e, params, config: ModelConfig):
    """Contextualize a fused (B, N, D) batch; position i sees only positions <= i."""
    h = np.asarray(e, dtype=np.float64)
    for layer in range(config.layers):
        h = _block_forward(h, params, config, layer)[0]
    return h


def moe_forward(e_hat, params, config: ModelConfig):
    """Softmax-gated blend of per-expert linear projections.

    Returns (s_hat, the (..., K) gate weights, experts_out). With a single
    ungated expert the weights are identically 1 and s_hat is a plain linear map.
    """
    e_hat = np.asarray(e_hat, dtype=np.float64)
    k, d, _ = params["experts_W"].shape
    experts = params["experts_W"].transpose(1, 0, 2).reshape(d, k * d)  # column k*D+e is W[k,:,e]
    experts_out = (e_hat @ experts).reshape(e_hat.shape[:-1] + (k, d))
    if config.gated:
        weights = _softmax(e_hat @ params["gate_W"] + params["gate_b"], axis=-1)
    else:
        weights = np.ones(e_hat.shape[:-1] + (1,))
    return _blend(weights, experts_out), weights, experts_out


def _forward_rows(params, config: ModelConfig, x, te) -> ForwardTrace:
    """The forward math on a batch of windows, with everything backward consumes."""
    se_pre, se, se_phi = _segment_embed(x, params)
    h, alpha = fuse(se, te, params["theta"]) if config.fused else (se, 1.0)
    del se  # the trace rebuilds it from se_pre and se_phi
    layer_caches = []
    for layer in range(config.layers):  # rebinding h lets each block's input go
        h, cache = _block_forward(h, params, config, layer)
        layer_caches.append(cache)
    s_hat, gate, experts_out = moe_forward(h, params, config)
    pred = s_hat @ params["out_W"]
    pred += params["out_b"]  # in place: this runs at the peak of a forward
    return ForwardTrace(
        config=config, x=x, te=te, se_pre=se_pre, se_phi=se_phi, alpha=alpha,
        layers=tuple(layer_caches), e_hat=h, gate=gate, experts_out=experts_out, pred=pred,
    )


def forward(params: dict, config: ModelConfig, x, te, *, keep_trace: bool = True,
            rows=None) -> ForwardTrace:
    """Full forward pass over a batch of windows.

    x: (B, N, S) segment values; te: (B, N, D) prompt embeddings. Position i
    of the output predicts the values of segment i+1. With keep_trace=False
    the same forward runs _SLAB_ROWS windows at a time, and the result keeps
    only pred, the gate weights and alpha of each slab; backward refuses it.
    With `rows`, a (B, N) index, x and te are a table of segments, (U, S)
    values and (U, D) text, and window b is the segments rows[b]: gathered
    whole for a trace, else one slab at a time, so the batch is never dense.
    """
    x = np.asarray(x, dtype=np.float64)
    te = np.asarray(te, dtype=np.float64)
    table = rows is not None
    if table and np.ndim(rows) != 2:
        raise ConfigError(f"row index shape {np.shape(rows)}, want (B, N)")
    if x.ndim != 3 - table or x.shape[-1] != config.segment_len:
        want = "U" if table else "B, N"
        raise ConfigError(f"segment shape {x.shape}, want ({want}, {config.segment_len})")
    if te.shape != x.shape[:-1] + (config.dim,):
        raise ConfigError(f"text shape {te.shape}, want {x.shape[:-1] + (config.dim,)}")
    if keep_trace:
        return _forward_rows(params, config, *((x[rows], te[rows]) if table else (x, te)))
    batch, n = np.shape(rows)[:2] if table else x.shape[:2]
    pred = np.empty((batch, n, config.segment_len))
    weights = np.empty((batch, n, config.experts))
    for lo in range(0, max(batch, 1), _SLAB_ROWS):  # one pass at batch 0 still sets alpha
        span = slice(lo, lo + _SLAB_ROWS)
        idx = rows[span] if table else span
        slab = _forward_rows(params, config, x[idx], te[idx])
        pred[span], weights[span], alpha = slab.pred, slab.gate, slab.alpha
        del slab  # else the next slab's trace would be built while this one is held
    return ForwardTrace(config=config, alpha=alpha, gate=weights, pred=pred)


def backward(params: dict, config: ModelConfig, trace: ForwardTrace,
             d_pred, d_gate: Optional[np.ndarray] = None) -> dict:
    """Reverse-mode gradients of a scalar loss for every parameter block.

    d_pred: loss gradient w.r.t. trace.pred, shape (B, N, S). d_gate: optional
    loss gradient w.r.t. the gate weights (sparsity penalties enter here); it
    flows through the gate softmax, so a constant-sum penalty yields zeros at
    the logits up to rounding.
    """
    if trace.config != config:
        raise ConfigError("trace was produced under a different model config")
    trace._kept(trace.e_hat)
    d_pred = np.asarray(d_pred, dtype=np.float64)
    if d_pred.shape != trace.pred.shape:
        raise ConfigError(f"d_pred shape {d_pred.shape} != pred shape {trace.pred.shape}")
    grads = {}
    grads["out_b"] = d_pred.sum(axis=(0, 1))
    grads["out_W"] = _weight_grad(trace.s_hat, d_pred)
    d_s_hat = d_pred @ params["out_W"].T

    weights = trace.gate
    d_weights = (trace.experts_out @ d_s_hat[..., None])[..., 0]
    if d_gate is not None:
        d_gate = np.asarray(d_gate, dtype=np.float64)
        if d_gate.shape != weights.shape:
            raise ConfigError(f"d_gate shape {d_gate.shape} != gate shape {weights.shape}")
        d_weights = d_weights + d_gate
    k, d, _ = params["experts_W"].shape
    d_experts = (weights[..., None] * d_s_hat[..., None, :]).reshape(-1, k * d)
    grads["experts_W"] = _weight_grad(trace.e_hat, d_experts).reshape(d, k, d).transpose(1, 0, 2)
    d_h = (d_experts @ params["experts_W"].transpose(0, 2, 1).reshape(k * d, d)).reshape(
        d_s_hat.shape)
    if config.gated:
        d_logits = _softmax_grad(d_weights, weights)
        grads["gate_b"] = d_logits.sum(axis=(0, 1))
        grads["gate_W"] = _weight_grad(trace.e_hat, d_logits)
        d_h = d_h + d_logits @ params["gate_W"].T
    del d_experts, d_s_hat, d_weights  # the blocks below need only d_h

    for layer in range(config.layers - 1, -1, -1):
        d_h = _block_backward(d_h, params, config, layer, trace.layers[layer], grads)

    if config.fused:
        grads["theta"] = np.asarray(
            trace.alpha * (1.0 - trace.alpha) * (d_h * (trace.se - trace.te)).sum()
        )
        d_se = trace.alpha * d_h
    else:
        d_se = d_h
    d_se_pre = d_se * _gelu_grad(trace.se_pre, trace.se_phi)
    grads["seg_b"] = d_se_pre.sum(axis=(0, 1))
    grads["seg_W"] = _weight_grad(trace.x, d_se_pre)
    return grads


def save_checkpoint(params: dict, config: ModelConfig, path) -> None:
    """Versioned JSON checkpoint; float repr keeps the roundtrip bit-exact.

    The text is json.dumps's, keys sorted, plus a newline, written one parameter block at
    a time so that only one block's floats and text are alive at once.
    """
    head = json.dumps({"config": asdict(config), "format": _CHECKPOINT_FORMAT}, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ', "params": {')
        for i, name in enumerate(sorted(params)):
            value = np.asarray(params[name])
            block = {"data": value.ravel().tolist(), "shape": list(value.shape)}
            # json.dumps runs the C encoder; json.dump(block, fh) would run the Python one
            fh.write(f'{", " if i else ""}{json.dumps(name)}: {json.dumps(block)}')
        fh.write("}}\n")


def load_checkpoint(path):
    """Inverse of save_checkpoint; malformed content raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
        if blob.get("format") != _CHECKPOINT_FORMAT:
            raise ConfigError(f"unrecognized checkpoint format: {blob.get('format')!r}")
        for f in fields(ModelConfig):  # json.load keeps 24.0 a float and 1 an int
            if type(blob["config"][f.name]) is not type(f.default):  # a missing key is no default
                raise ConfigError(f"checkpoint config {f.name!r} must be {type(f.default).__name__}")
        config = ModelConfig(**blob["config"])
        expected = param_shapes(config)
        params = {}
        for name, entry in blob["params"].items():
            if name not in expected:
                raise ConfigError(f"unexpected parameter block {name!r}")
            value = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            if value.shape != expected[name]:
                raise ConfigError(f"{name}: shape {value.shape}, config implies {expected[name]}")
            if not np.isfinite(value).all():
                raise ConfigError(f"parameter block {name!r} is not all finite")
            params[name] = value
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ConfigError(f"malformed checkpoint {path}: {type(exc).__name__}: {exc}") from None
    missing = sorted(set(expected) - set(params))
    if missing:
        raise ConfigError(f"checkpoint missing parameter blocks: {missing}")
    return params, config
