"""Hand-written backward pass against finite differences and closed forms."""

import numpy as np
import pytest

from fusecast.errors import ConfigError
from fusecast.model import (
    ModelConfig,
    _gelu_grad,
    _layer_norm_backward,
    _merge_heads,
    _softmax_grad,
    _split_heads,
    backward,
    forward,
    init_params,
    param_shapes,
    sigmoid,
)
from fusecast.train import TrainConfig, gradient_check
from fusecast.train import _batch_step  # loss plumbing shared with training


def _dense_step(params, config, tconfig, x, te):
    """_batch_step on (B, N, S) x and (B, N, D) te, as a table with a row per segment."""
    b, n, s = x.shape
    return _batch_step(params, config, tconfig, x.reshape(-1, s), te.reshape(-1, te.shape[-1]),
                       np.arange(b * n).reshape(b, n))


class TestGradientCheck:
    def test_all_blocks_within_tolerance(self):
        report = gradient_check(seed=0, h=1e-5)
        worst = max(report.values())
        assert worst <= 1e-4, f"worst block error {worst}"

    def test_covers_every_parameter(self):
        report = gradient_check(seed=1, h=1e-5)
        config = ModelConfig(seed=1, segment_len=4, dim=8, experts=2, layers=1, heads=1)
        assert set(report) == set(param_shapes(config))

    @pytest.mark.parametrize("h", [0.0, -1e-5, float("nan"), float("inf")])
    def test_step_must_be_finite_and_positive(self, h):
        with pytest.raises(ConfigError, match="h must be"):
            gradient_check(seed=0, h=h)


class TestThetaClosedForm:
    def test_matches_manual_chain(self):
        """Backbone off, one expert: the theta gradient has a short closed form."""
        config = ModelConfig(segment_len=3, dim=5, experts=1, layers=0, gated=False, seed=4)
        params = init_params(config)
        params["theta"] = np.asarray(0.3)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 4, 3))
        te = rng.normal(size=(2, 4, 5))
        trace = forward(params, config, x, te)
        d_pred = rng.normal(size=trace.pred.shape)
        grads = backward(params, config, trace, d_pred)

        alpha = sigmoid(0.3)
        d_e = (d_pred @ params["out_W"].T) @ params["experts_W"][0].T
        manual = alpha * (1 - alpha) * (d_e * (trace.se - trace.te)).sum()
        assert abs(float(grads["theta"]) - manual) <= 1e-10 * max(1.0, abs(manual))

    def test_equal_pathways_zero_gradient(self):
        # when SE == TE the (SE - TE) factor kills the gradient exactly
        config = ModelConfig(segment_len=3, dim=5, experts=1, layers=0, gated=False, seed=4)
        params = init_params(config)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 4, 3))
        te = forward(params, config, x, np.zeros((2, 4, 5))).se  # text mirrors the values
        trace = forward(params, config, x, te)
        grads = backward(params, config, trace, rng.normal(size=trace.pred.shape))
        assert float(grads["theta"]) == 0.0

    def test_matches_finite_difference(self):
        config = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1, seed=2)
        tconfig = TrainConfig(lam=0.05, sparsity_mode="entropy")
        params = init_params(config)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4))
        te = rng.normal(size=(2, 3, 8))
        trace, _, d_pred, d_gate = _dense_step(params, config, tconfig, x, te)
        analytic = float(backward(params, config, trace, d_pred, d_gate)["theta"])
        h = 1e-6
        params["theta"] = np.asarray(h)
        up = _dense_step(params, config, tconfig, x, te)[1]
        params["theta"] = np.asarray(-h)
        down = _dense_step(params, config, tconfig, x, te)[1]
        assert analytic == pytest.approx((up - down) / (2 * h), abs=1e-6)


class TestSparsityGradient:
    def test_constant_penalty_vanishes_at_logits(self):
        """An L1 penalty on a row-stochastic gate is constant; its pullback
        through the softmax dies at rounding noise, far below any real signal."""
        config = ModelConfig(segment_len=4, dim=8, experts=3, layers=1, heads=1, seed=5)
        params = init_params(config)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 4))
        te = rng.normal(size=(2, 3, 8))
        trace = forward(params, config, x, te)
        d_gate = 0.1 * np.sign(trace.gate)  # literal-mode penalty gradient
        grads = backward(params, config, trace, np.zeros_like(trace.pred), d_gate)
        for name, grad in grads.items():
            assert np.abs(grad).max() <= 1e-12, name

    def test_entropy_penalty_does_not_vanish(self):
        config = ModelConfig(segment_len=4, dim=8, experts=3, layers=0, seed=5)
        params = init_params(config)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 4))
        te = rng.normal(size=(2, 3, 8))
        trace = forward(params, config, x, te)
        w = trace.gate
        d_gate = 0.1 * (-(np.log(w) + 1.0))
        grads = backward(params, config, trace, np.zeros_like(trace.pred), d_gate)
        assert np.abs(grads["gate_W"]).max() > 1e-8


class TestBackwardValidation:
    def test_config_mismatch(self):
        config = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1)
        other = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=2)
        params = init_params(config)
        rng = np.random.default_rng(0)
        trace = forward(params, config, rng.normal(size=(1, 2, 4)), rng.normal(size=(1, 2, 8)))
        with pytest.raises(ConfigError, match="different model config"):
            backward(init_params(other), other, trace, np.zeros((1, 2, 4)))

    def test_d_pred_shape(self):
        params = init_params(ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1))
        config = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1)
        rng = np.random.default_rng(0)
        trace = forward(params, config, rng.normal(size=(1, 2, 4)), rng.normal(size=(1, 2, 8)))
        with pytest.raises(ConfigError, match="d_pred shape"):
            backward(params, config, trace, np.zeros((1, 2, 5)))

    def test_d_gate_shape(self):
        config = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1)
        params = init_params(config)
        rng = np.random.default_rng(0)
        trace = forward(params, config, rng.normal(size=(1, 2, 4)), rng.normal(size=(1, 2, 8)))
        with pytest.raises(ConfigError, match="d_gate shape"):
            backward(params, config, trace, np.zeros((1, 2, 4)), d_gate=np.zeros((1, 2, 3)))


# The einsum formulas the GEMM-based forward and backward replaced, kept as
# their oracle: same math, summed in a different order.
def _oracle_moe(e_hat, params, config):
    experts_out = np.einsum("...d,kde->...ke", e_hat, params["experts_W"])
    if config.gated:
        logits = e_hat @ params["gate_W"] + params["gate_b"]
        ex = np.exp(logits - logits.max(axis=-1, keepdims=True))
        weights = ex / ex.sum(axis=-1, keepdims=True)
    else:
        weights = np.ones(e_hat.shape[:-1] + (1,))
    s_hat = np.einsum("...k,...kd->...d", weights, experts_out)
    return experts_out, s_hat, s_hat @ params["out_W"] + params["out_b"]


def _oracle_block_backward(d_out, params, config, layer, cache, grads):
    h = config.heads
    scale = 1.0 / np.sqrt(config.dim // h)
    grads[f"ff_b2_{layer}"] = d_out.sum(axis=(0, 1))
    ff_act = cache["ff_pre"] * cache["ff_phi"]
    grads[f"ff_W2_{layer}"] = np.einsum("bnf,bnd->fd", ff_act, d_out)
    d_ff_pre = (d_out @ params[f"ff_W2_{layer}"].T) * _gelu_grad(cache["ff_pre"], cache["ff_phi"])
    grads[f"ff_b1_{layer}"] = d_ff_pre.sum(axis=(0, 1))
    y2 = params[f"ln2_{layer}"] * cache["xhat2"]  # the trace keeps xhat, not the norm output
    grads[f"ff_W1_{layer}"] = np.einsum("bnd,bnf->df", y2, d_ff_pre)
    d_x_mid, grads[f"ln2_{layer}"] = _layer_norm_backward(
        d_ff_pre @ params[f"ff_W1_{layer}"].T, params[f"ln2_{layer}"],
        cache["xhat2"], cache["inv2"])
    d_x_mid = d_x_mid + d_out
    ctx = np.einsum("bhij,bhjd->bhid", cache["attn"], cache["v"]).transpose(0, 2, 1, 3)
    ctx = ctx.reshape(d_x_mid.shape)
    grads[f"attn_Wo_{layer}"] = np.einsum("bnd,bne->de", ctx, d_x_mid)
    d_ctx = _split_heads(d_x_mid @ params[f"attn_Wo_{layer}"].T, h)
    d_scores = _softmax_grad(d_ctx @ cache["v"].transpose(0, 1, 3, 2), cache["attn"])
    d_v = cache["attn"].transpose(0, 1, 3, 2) @ d_ctx
    d_q = (d_scores @ cache["k"]) * scale
    d_k = (d_scores.transpose(0, 1, 3, 2) @ cache["q"]) * scale
    y1 = params[f"ln1_{layer}"] * cache["xhat1"]
    d_y1 = np.zeros_like(y1)
    for name, d_proj in (("attn_Wq", d_q), ("attn_Wk", d_k), ("attn_Wv", d_v)):
        merged = _merge_heads(d_proj)
        grads[f"{name}_{layer}"] = np.einsum("bnd,bne->de", y1, merged)
        d_y1 += merged @ params[f"{name}_{layer}"].T
    d_x, grads[f"ln1_{layer}"] = _layer_norm_backward(
        d_y1, params[f"ln1_{layer}"], cache["xhat1"], cache["inv1"])
    return d_x + d_x_mid


def _oracle_backward(params, config, trace, d_pred, d_gate):
    grads = {"out_b": d_pred.sum(axis=(0, 1)),
             "out_W": np.einsum("bnd,bns->ds", trace.s_hat, d_pred)}
    d_s_hat = d_pred @ params["out_W"].T
    weights = trace.gate
    d_weights = np.einsum("bnd,bnkd->bnk", d_s_hat, trace.experts_out) + d_gate
    d_experts_out = weights[..., None] * d_s_hat[..., None, :]
    grads["experts_W"] = np.einsum("bnd,bnke->kde", trace.e_hat, d_experts_out)
    d_h = np.einsum("bnke,kde->bnd", d_experts_out, params["experts_W"])
    if config.gated:
        d_logits = _softmax_grad(d_weights, weights)
        grads["gate_b"] = d_logits.sum(axis=(0, 1))
        grads["gate_W"] = np.einsum("bnd,bnk->dk", trace.e_hat, d_logits)
        d_h = d_h + d_logits @ params["gate_W"].T
    for layer in range(config.layers - 1, -1, -1):
        d_h = _oracle_block_backward(d_h, params, config, layer, trace.layers[layer], grads)
    d_se = d_h
    if config.fused:
        grads["theta"] = np.asarray(
            trace.alpha * (1.0 - trace.alpha) * (d_h * (trace.se - trace.te)).sum())
        d_se = trace.alpha * d_h
    d_se_pre = d_se * _gelu_grad(trace.se_pre, trace.se_phi)
    grads["seg_b"] = d_se_pre.sum(axis=(0, 1))
    grads["seg_W"] = np.einsum("bns,bnd->sd", trace.x, d_se_pre)
    return grads


def _assert_close(got, want, what):
    err = np.abs(got - want).max()
    assert err <= 1e-12 * np.abs(want).max(), f"{what}: max abs diff {err}"


_ENTROPY = dict(lam=0.1, sparsity_mode="entropy")


class TestEinsumOracle:
    @pytest.mark.parametrize("overrides, loss", [
        ({}, _ENTROPY),  # the default CLI model
        ({"experts": 1, "gated": False}, _ENTROPY),
        ({"layers": 0}, _ENTROPY),
        ({"fused": False}, _ENTROPY),
        ({}, dict(lam=0.0, sparsity_mode="literal")),  # the mean squared error alone
    ], ids=["default", "ungated", "layers0", "unfused", "plain_mse"])
    def test_forward_and_backward_match_the_einsums(self, overrides, loss):
        config = ModelConfig(**{"segment_len": 24, "dim": 64, "experts": 4, "layers": 2,
                                "heads": 2, "seed": 3, **overrides})
        params = init_params(config)
        if config.fused:
            params["theta"] = np.asarray(0.3)
        tconfig = TrainConfig(**loss)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(32, 7, 24))
        te = rng.normal(size=(32, 7, 64)) / 8.0
        trace, _, d_pred, d_gate = _dense_step(params, config, tconfig, x, te)
        for name, want in zip(("experts_out", "s_hat", "pred"),
                              _oracle_moe(trace.e_hat, params, config)):
            _assert_close(getattr(trace, name), want, name)
        grads = backward(params, config, trace, d_pred, d_gate)
        want = _oracle_backward(params, config, trace, d_pred, d_gate)
        assert set(grads) == set(want) == set(param_shapes(config))
        for name in want:
            assert grads[name].shape == want[name].shape, name
            _assert_close(grads[name], want[name], name)
