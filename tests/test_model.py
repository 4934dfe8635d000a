"""Forward-pass semantics: fusion, causality, routing, checkpoints."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusecast.errors import ConfigError, ShapeError
from fusecast.model import (
    ModelConfig,
    _ERF_CHUNK,
    _ERF_SPLIT,
    _SLAB_ROWS,
    _erf,
    _gelu,
    _gelu_grad,
    _layer_norm,
    _segment_embed,
    backbone_forward,
    backward,
    forward,
    fuse,
    init_params,
    load_checkpoint,
    moe_forward,
    param_shapes,
    save_checkpoint,
    sigmoid,
)
from fusecast.train import TrainConfig, WindowTensors, evaluate_windows

TINY = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1, seed=0)


def _first_out_b(text, spelling):
    """Checkpoint text with the first out_b value written as `spelling`."""
    blob = json.loads(text)
    blob["params"]["out_b"]["data"][0] = "@"
    return json.dumps(blob).replace('"@"', spelling)


def _drop_config_keys(text, *keys):
    """Checkpoint text without the config `keys`."""
    blob = json.loads(text)
    for key in keys:
        del blob["config"][key]
    return json.dumps(blob)


def make_inputs(config, batch=2, n=3, seed=11):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, n, config.segment_len))
    te = rng.normal(size=(batch, n, config.dim)) / np.sqrt(config.dim)
    return x, te


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(segment_len=0, dim=8),
            dict(segment_len=4, dim=0),
            dict(segment_len=4, dim=8, experts=0),
            dict(segment_len=4, dim=8, layers=-1),
            dict(segment_len=4, dim=8, layers=1, heads=3),  # 3 does not divide 8
            dict(segment_len=4, dim=8, layers=1, heads=0),
            dict(segment_len=4, dim=8, experts=2, gated=False),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(**kwargs)

    def test_ungated_refusal_names_its_keys(self):
        with pytest.raises(ConfigError, match=r"^gated false needs experts 1, got experts=2$"):
            ModelConfig(segment_len=4, dim=8, experts=2, gated=False)

    def test_heads_unconstrained_without_layers(self):
        ModelConfig(segment_len=4, dim=8, layers=0, heads=3)

    @pytest.mark.parametrize("kwargs", [
        dict(dim=10**8),
        dict(dim=64, experts=10**5),
        dict(dim=64, layers=10**9),
        dict(dim=64, segment_len=10**9),
        dict(dim=1, heads=1, layers=2_000_000),  # 26,000,086 parameters in 20,000,008 arrays
    ], ids=["dim", "experts", "layers", "segment_len", "deep-narrow"])
    def test_refuses_a_model_above_the_size_ceiling(self, kwargs):
        # only shapes are summed: nothing of the model's size is allocated
        with pytest.raises(ConfigError, match=r"\d[\d,]* parameters.*hidden_dim.*layers"):
            ModelConfig(**{"segment_len": 24, **kwargs})

    def test_default_model_is_far_below_the_ceiling(self):
        shapes = param_shapes(ModelConfig(segment_len=24, dim=64))
        assert sum(math.prod(shape) for shape in shapes.values()) == 85_981


class TestParams:
    def test_shapes_catalog(self):
        shapes = param_shapes(ModelConfig(segment_len=4, dim=6, experts=3, layers=2, heads=2))
        assert shapes["seg_W"] == (4, 6)
        assert shapes["theta"] == ()
        assert shapes["ff_W1_1"] == (6, 12)  # hidden is 2*dim
        assert shapes["gate_W"] == (6, 3)
        assert shapes["experts_W"] == (3, 6, 6)
        assert shapes["out_W"] == (6, 4)
        layer0 = [k for k in shapes if k.endswith("_0")]
        assert len(layer0) == 10

    def test_init_matches_catalog(self):
        config = TINY
        params = init_params(config)
        assert set(params) == set(param_shapes(config))
        for name, shape in param_shapes(config).items():
            assert params[name].shape == shape

    def test_init_values(self):
        params = init_params(TINY)
        assert params["theta"].shape == () and params["theta"] == 0.0
        np.testing.assert_array_equal(params["ln1_0"], np.ones(8))
        np.testing.assert_array_equal(params["seg_b"], np.zeros(8))
        np.testing.assert_array_equal(params["out_b"], np.zeros(4))
        assert np.abs(params["seg_W"]).max() <= 1.0 / np.sqrt(4)
        assert np.abs(params["experts_W"]).max() <= 1.0 / np.sqrt(8)

    def test_init_seeded(self):
        a = init_params(TINY)
        b = init_params(TINY)
        c = init_params(ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1, seed=1))
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
        assert not np.array_equal(a["seg_W"], c["seg_W"])

    def test_ablated_configs_drop_blocks(self):
        no_fuse = param_shapes(ModelConfig(segment_len=4, dim=8, fused=False))
        assert "theta" not in no_fuse
        no_gate = param_shapes(ModelConfig(segment_len=4, dim=8, experts=1, gated=False))
        assert "gate_W" not in no_gate and "gate_b" not in no_gate


class TestActivations:
    def test_gelu_fixed_points(self):
        assert _gelu(np.array(0.0))[0] == 0.0
        np.testing.assert_allclose(_gelu(np.array(10.0))[0], 10.0, atol=1e-12)  # saturates to identity
        np.testing.assert_allclose(_gelu(np.array(-10.0))[0], 0.0, atol=1e-12)

    def test_gelu_is_erf_form(self):
        from scipy.special import erf

        x = np.linspace(-3, 3, 31)
        np.testing.assert_allclose(_gelu(x)[0], 0.5 * x * (1 + erf(x / np.sqrt(2))), atol=0)

    def test_gelu_keeps_phi_for_backward(self):
        x = np.random.default_rng(2).normal(0, 3, 100_000)
        act, phi = _gelu(x)
        recomputed = 0.5 * (1.0 + _erf(x / np.sqrt(2.0)))
        assert np.array_equal(phi, recomputed)
        assert np.array_equal(act, 0.5 * x * (1.0 + _erf(x / np.sqrt(2.0))))
        density = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        assert np.array_equal(_gelu_grad(x, phi), recomputed + x * density)

    def test_sigmoid_stable_at_extremes(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0
        assert sigmoid(0.0) == 0.5


class TestFusion:
    def test_theta_zero_is_exact_midpoint(self):
        rng = np.random.default_rng(0)
        se, te = rng.normal(size=(2, 5, 8)), rng.normal(size=(2, 5, 8))
        e, alpha = fuse(se, te, 0.0)
        assert alpha == 0.5
        np.testing.assert_array_equal(e, 0.5 * se + 0.5 * te)

    def test_saturation(self):
        rng = np.random.default_rng(1)
        se, te = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
        spread = np.abs(se - te).max()
        e_hi, _ = fuse(se, te, 20.0)
        e_lo, _ = fuse(se, te, -20.0)
        assert np.abs(e_hi - se).max() <= 1e-6 * spread
        assert np.abs(e_lo - te).max() <= 1e-6 * spread

    @given(
        theta=st.floats(-30, 30),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60)
    def test_convex_hull(self, theta, seed):
        rng = np.random.default_rng(seed)
        se, te = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        e, alpha = fuse(se, te, theta)
        assert 0.0 < alpha < 1.0
        lo, hi = np.minimum(se, te), np.maximum(se, te)
        assert (e >= lo - 1e-12).all() and (e <= hi + 1e-12).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fuse(np.zeros((2, 3)), np.zeros((2, 4)), 0.0)


class TestBackbone:
    def test_zero_layers_is_identity(self):
        config = ModelConfig(segment_len=4, dim=8, layers=0)
        params = init_params(config)
        e = np.random.default_rng(3).normal(size=(2, 5, 8))
        np.testing.assert_array_equal(backbone_forward(e, params, config), e)

    def test_causal_exactly(self):
        """Changing segment j must not move any output at positions < j."""
        config = ModelConfig(segment_len=4, dim=8, experts=2, layers=2, heads=2, seed=0)
        params = init_params(config)
        x, te = make_inputs(config, batch=1, n=6)
        base = forward(params, config, x, te).pred
        for j in range(1, 6):
            x2 = x.copy()
            x2[0, j] += 3.0
            moved = forward(params, config, x2, te).pred
            np.testing.assert_array_equal(moved[0, :j], base[0, :j])
            assert not np.allclose(moved[0, j], base[0, j])

    def test_text_perturbation_is_causal_too(self):
        params = init_params(TINY)
        x, te = make_inputs(TINY, batch=1, n=4)
        base = forward(params, TINY, x, te).pred
        te2 = te.copy()
        te2[0, 2] -= 1.5
        moved = forward(params, TINY, x, te2).pred
        np.testing.assert_array_equal(moved[0, :2], base[0, :2])


class TestMoE:
    def test_gate_rows_stochastic(self):
        params = init_params(TINY)
        x, te = make_inputs(TINY, batch=3, n=4)
        trace = forward(params, TINY, x, te)
        sums = trace.gate.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        assert (trace.gate > 0).all()

    def test_single_expert_is_plain_linear(self):
        config = ModelConfig(segment_len=4, dim=8, experts=1, layers=1, heads=1, gated=False)
        params = init_params(config)
        e_hat = np.random.default_rng(5).normal(size=(2, 3, 8))
        s_hat, gate, _ = moe_forward(e_hat, params, config)
        np.testing.assert_allclose(s_hat, e_hat @ params["experts_W"][0], atol=1e-12)
        np.testing.assert_array_equal(gate, np.ones((2, 3, 1)))

    def test_gated_single_expert_matches_ungated(self):
        gated = ModelConfig(segment_len=4, dim=8, experts=1, layers=0, gated=True)
        plain = ModelConfig(segment_len=4, dim=8, experts=1, layers=0, gated=False)
        pg = init_params(gated)
        pu = {k: v for k, v in pg.items() if not k.startswith("gate")}
        x, te = make_inputs(gated)
        np.testing.assert_allclose(
            forward(pg, gated, x, te).pred, forward(pu, plain, x, te).pred, atol=1e-12
        )

    def test_identical_experts_ignore_gate(self):
        config = ModelConfig(segment_len=4, dim=8, experts=3, layers=1, heads=1)
        params = init_params(config)
        params["experts_W"] = np.repeat(params["experts_W"][:1], 3, axis=0)
        x, te = make_inputs(config)
        base = forward(params, config, x, te).pred
        rng = np.random.default_rng(6)
        for _ in range(3):
            params["gate_W"] = rng.normal(size=(8, 3))
            params["gate_b"] = rng.normal(size=3)
            np.testing.assert_allclose(forward(params, config, x, te).pred, base, atol=1e-12)

    def test_output_is_gate_blend(self):
        params = init_params(TINY)
        x, te = make_inputs(TINY)
        trace = forward(params, TINY, x, te)
        manual = np.einsum("bnk,bnkd->bnd", trace.gate, trace.experts_out)
        np.testing.assert_allclose(trace.s_hat, manual, atol=0)


class TestForward:
    def test_shapes_and_dtype(self):
        params = init_params(TINY)
        x, te = make_inputs(TINY, batch=3, n=5)
        trace = forward(params, TINY, x, te)
        assert trace.pred.shape == (3, 5, 4)
        assert trace.experts_out.shape == (3, 5, 2, 8)
        assert trace.pred.dtype == np.float64

    def test_params_for_another_segment_len_are_refused(self):
        params = init_params(ModelConfig(segment_len=6, dim=8, experts=2, layers=1, heads=1))
        x, te = make_inputs(TINY)  # inputs of TINY's segment_len pass forward's own checks
        with pytest.raises(ShapeError, match="seg_W rows 6"):
            forward(params, TINY, x, te)

    @pytest.mark.parametrize("layers", [0, 1])
    def test_only_a_backbone_reads_earlier_segments(self, layers):
        """At layers 0 the final position's forecast depends on the last segment alone."""
        config = ModelConfig(segment_len=4, dim=8, experts=2, layers=layers, heads=1)
        params = init_params(config)
        x, te = make_inputs(config, n=4)
        x2, te2 = make_inputs(config, n=4, seed=12)
        x2[:, -1], te2[:, -1] = x[:, -1], te[:, -1]  # other earlier segments and text
        last, last2 = (forward(params, config, *pair).pred[:, -1] for pair in ((x, te), (x2, te2)))
        assert (last.tobytes() == last2.tobytes()) == (layers == 0)

    def test_prediction_head(self):
        params = init_params(TINY)
        x, te = make_inputs(TINY)
        trace = forward(params, TINY, x, te)
        want = trace.s_hat @ params["out_W"] + params["out_b"]
        assert trace.pred.tobytes() == want.tobytes()

    def test_fusion_and_backbone_match_trace(self):
        params = init_params(TINY)
        params["theta"] = np.asarray(0.4)
        x, te = make_inputs(TINY)
        trace = forward(params, TINY, x, te)
        fused, alpha = fuse(trace.se, te, params["theta"])
        assert alpha == trace.alpha
        np.testing.assert_array_equal(trace.e_hat, backbone_forward(fused, params, TINY))

    def test_unfused_ignores_text(self):
        config = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1, fused=False)
        params = init_params(config)
        x, te = make_inputs(config)
        trace = forward(params, config, x, te)
        assert trace.alpha == 1.0
        other = forward(params, config, x, np.zeros_like(te))
        np.testing.assert_array_equal(trace.pred, other.pred)

    @pytest.mark.parametrize(
        "x_shape,te_shape",
        [
            ((2, 3, 5), (2, 3, 8)),  # wrong segment length
            ((2, 3, 4), (2, 3, 7)),  # wrong dim
            ((2, 3, 4), (2, 2, 8)),  # position mismatch
            ((3, 4), (3, 8)),  # missing batch axis
        ],
    )
    def test_shape_errors(self, x_shape, te_shape):
        params = init_params(TINY)
        with pytest.raises(ShapeError):
            forward(params, TINY, np.zeros(x_shape), np.zeros(te_shape))

    def test_forward_is_pure(self):
        params = init_params(TINY)
        x, te = make_inputs(TINY)
        a = forward(params, TINY, x, te).pred
        b = forward(params, TINY, x, te).pred
        np.testing.assert_array_equal(a, b)

    def test_rebuilt_values_are_bit_equal(self):
        params = init_params(TINY)
        params["theta"] = np.asarray(0.4)
        x, te = make_inputs(TINY, batch=3, n=4)
        trace = forward(params, TINY, x, te)
        assert trace.se.tobytes() == _segment_embed(x, params)[1].tobytes()
        assert trace.s_hat.tobytes() == moe_forward(trace.e_hat, params, TINY)[0].tobytes()

    def test_memory_budget_at_the_default_config(self):
        """The trace stores each activation once; a second copy of one breaks the budget."""
        config = ModelConfig(segment_len=24, dim=64)  # the CLI's default model
        params = init_params(config)
        x, te = make_inputs(config, batch=64, n=7)
        forward(params, config, x, te)  # leaves lazy set-up out of the count
        unit = 64 * 7 * 64 * 8  # bytes of one (B, N, D) float64 activation
        tracemalloc.start()
        try:
            trace = forward(params, config, x, te)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.pred.shape == (64, 7, 24)
        # measured: 25.96 units kept, 27.25 at the peak; one more stored activation adds
        # a unit to each
        assert kept <= 26.4 * unit, f"trace keeps {kept / unit:.2f} units"
        assert peak <= 27.7 * unit, f"forward peaks at {peak / unit:.2f} units"

    def test_backward_peak_memory_at_the_default_config(self):
        """Backward frees each temporary at its last use; keeping them all until its frame
        returns breaks the budget."""
        config = ModelConfig(segment_len=24, dim=64)  # the CLI's default model
        params = init_params(config)
        x, te = make_inputs(config, batch=32, n=7)  # TrainConfig's batch
        trace = forward(params, config, x, te)
        rng = np.random.default_rng(3)
        d_pred, d_gate = rng.normal(size=trace.pred.shape), rng.normal(size=trace.gate.shape)
        backward(params, config, trace, d_pred, d_gate)  # leaves lazy set-up out of the count
        tracemalloc.start()
        try:
            backward(params, config, trace, d_pred, d_gate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: 2.07 MB, against 3.39 MB when every temporary lived until its frame returned
        assert peak <= 2.3e6, f"backward peaks at {peak / 1e6:.2f} MB"


DEFAULT = ModelConfig(segment_len=24, dim=64)  # the CLI's default model


class TestTraceFreeForward:
    @pytest.mark.parametrize("config", [
        DEFAULT,
        ModelConfig(segment_len=24, dim=64, experts=1, gated=False),
        ModelConfig(segment_len=24, dim=64, layers=0),
        ModelConfig(segment_len=24, dim=64, fused=False),
    ], ids=["default", "ungated", "layers0", "unfused"])
    @pytest.mark.parametrize("batch", [1, _SLAB_ROWS - 1, _SLAB_ROWS, _SLAB_ROWS + 1,
                                       3 * _SLAB_ROWS + 5,
                                       127, 128, 129, 389])  # many slabs, whole and partial
    def test_bit_equal_to_the_full_forward(self, config, batch):
        params = init_params(config)
        if config.fused:
            params["theta"] = np.array(0.3)
        x, te = make_inputs(config, batch=batch, n=7, seed=batch)
        full = forward(params, config, x, te)
        free = forward(params, config, x, te, keep_trace=False)
        assert np.array_equal(free.pred, full.pred)
        assert np.array_equal(free.gate, full.gate)
        assert free.alpha == full.alpha

    @pytest.mark.parametrize("config", [
        DEFAULT,
        ModelConfig(segment_len=24, dim=64, experts=1, gated=False),
        ModelConfig(segment_len=24, dim=64, layers=0),
        ModelConfig(segment_len=24, dim=64, fused=False),
    ], ids=["default", "ungated", "layers0", "unfused"])
    @pytest.mark.parametrize("batch", [1, _SLAB_ROWS - 1, _SLAB_ROWS, _SLAB_ROWS + 1,
                                       769])  # 769: the default val split, a one-row last slab
    def test_table_rows_bit_equal_to_the_full_forward(self, config, batch):
        """Stride-1 windows share segments: window b is table rows b..b+6."""
        params = init_params(config)
        if config.fused:
            params["theta"] = np.array(0.3)
        values, text = (part[0] for part in make_inputs(config, batch=1, n=batch + 6, seed=batch))
        rows = np.arange(batch)[:, None] + np.arange(7)
        full = forward(params, config, values[rows], text[rows])
        for keep_trace in (False, True):
            table = forward(params, config, values, text, keep_trace=keep_trace, rows=rows)
            assert np.array_equal(table.pred, full.pred)
            assert np.array_equal(table.gate, full.gate)
            assert table.alpha == full.alpha

    @pytest.mark.parametrize("x_shape,te_shape,rows_shape", [
        ((2, 3, 4), (2, 3, 8), (2, 3)),  # x is a batch, not a table
        ((6, 4), (5, 8), (2, 3)),  # te has another row count
        ((6, 4), (6, 8), (6,)),  # rows is not (B, N)
    ], ids=["x-not-2d", "te-rows-differ", "rows-not-2d"])
    def test_a_malformed_table_is_refused(self, x_shape, te_shape, rows_shape):
        rows = np.arange(math.prod(rows_shape)).reshape(rows_shape) % 5
        with pytest.raises(ShapeError):
            forward(init_params(TINY), TINY, np.zeros(x_shape), np.zeros(te_shape),
                    keep_trace=False, rows=rows)

    def test_keeps_nothing_for_backward(self):
        params = init_params(TINY)
        x, te = make_inputs(TINY)
        free = forward(params, TINY, x, te, keep_trace=False)
        assert free.layers is None and free.e_hat is None and free.experts_out is None
        with pytest.raises(ConfigError, match="keep_trace=False"):
            backward(params, TINY, free, np.zeros_like(free.pred))
        with pytest.raises(ConfigError, match="keep_trace=False"):
            free.se
        with pytest.raises(ConfigError, match="keep_trace=False"):
            free.s_hat

    def test_memory_does_not_grow_with_the_batch(self):
        """Past one slab, only the outputs grow: a forward of 8 slabs peaks within 10% of
        one slab's peak plus its own larger outputs."""
        params = init_params(DEFAULT)
        x1, te1 = make_inputs(DEFAULT, batch=1, n=7)

        def peak(batch):  # identical windows as stride-0 views, so the inputs cost nothing
            x = np.broadcast_to(x1, (batch,) + x1.shape[1:])
            te = np.broadcast_to(te1, (batch,) + te1.shape[1:])
            forward(params, DEFAULT, x, te, keep_trace=False)  # leaves lazy set-up out
            tracemalloc.start()
            try:
                out = forward(params, DEFAULT, x, te, keep_trace=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, out.pred.nbytes + out.gate.nbytes

        one, _ = peak(_SLAB_ROWS)
        eight, outputs = peak(8 * _SLAB_ROWS)
        # measured: 3.2 MB at one slab, 3.6 MB at eight with 0.4 MB of outputs; a full
        # trace at eight slabs would hold about 25 MB
        assert eight <= 1.1 * (one + outputs), f"{eight / 1e6:.1f} MB at 8 slabs"

    def test_scoring_peaks_no_higher_than_a_train_step(self):
        """Scoring the 769 default val windows peaks within 10% of a training forward at
        TrainConfig's batch plus the scores themselves, whether the windows come as a dense
        batch or as validation's table of segments, which is never gathered whole."""
        params = init_params(DEFAULT)
        x1, te1 = make_inputs(DEFAULT, batch=1, n=7)

        def peak(score):
            score()  # leaves lazy set-up out
            tracemalloc.start()
            try:
                score()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def dense(batch, keep_trace):  # stride-0 views, so the inputs cost nothing
            x = np.broadcast_to(x1, (batch,) + x1.shape[1:])
            te = np.broadcast_to(te1, (batch,) + te1.shape[1:])
            return lambda: forward(params, DEFAULT, x, te, keep_trace=keep_trace)

        values, text = (part[0] for part in make_inputs(DEFAULT, batch=1, n=769 + 6))
        table = WindowTensors(values=values, text=text,
                              rows=np.arange(769)[:, None] + np.arange(7),  # stride-1 windows
                              windows=[])  # scoring reads its targets, not the windows
        targets = np.zeros((769, DEFAULT.segment_len))
        step = peak(dense(TrainConfig().batch, keep_trace=True))
        outputs = 769 * 7 * (DEFAULT.segment_len + DEFAULT.experts) * 8  # pred and gate weights
        # measured: 4.39 MB scoring against 3.18 MB for a B=32 step plus 1.21 MB of scores;
        # slabs of 128 rows peaked at 7.91 MB, and a dense gather of the table adds 3.79 MB
        for name, score in (("dense", dense(769, keep_trace=False)),
                            ("table", lambda: evaluate_windows(params, DEFAULT, table, targets))):
            scoring = peak(score)
            assert scoring <= 1.1 * (step + outputs), f"{name} peaks at {scoring / 1e6:.2f} MB"


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        config = ModelConfig(segment_len=4, dim=8, experts=3, layers=2, heads=2, seed=9)
        params = init_params(config)
        path = tmp_path / "model.json"
        save_checkpoint(params, config, path)
        loaded, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])
            assert loaded[name].shape == params[name].shape

    @pytest.mark.parametrize("config,digest", [
        (ModelConfig(segment_len=4, dim=8, experts=3, layers=2, heads=2, seed=9),
         "e5623597d516344b5587cc12f4cecf172280792e9c76f00d0740c1c6326272e6"),
        (ModelConfig(segment_len=4, dim=8, experts=1, layers=1, heads=1, seed=3, gated=False),
         "611a03f2262c3a7b2e5ea5ba9328620e49c52b03cac1fd375a72f6316cc394ca"),
    ], ids=["gated", "ungated"])
    def test_file_bytes_pinned(self, tmp_path, config, digest):
        """The checkpoint text is fixed byte for byte, whichever JSON encoder writes it."""
        path = tmp_path / "m.json"
        save_checkpoint(init_params(config), config, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_roundtrip_preserves_predictions(self, tmp_path):
        params = init_params(TINY)
        x, te = make_inputs(TINY)
        before = forward(params, TINY, x, te).pred
        save_checkpoint(params, TINY, tmp_path / "m.json")
        loaded, config = load_checkpoint(tmp_path / "m.json")
        np.testing.assert_array_equal(forward(loaded, config, x, te).pred, before)

    def test_bad_format(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "something-else", "config": {}, "params": {}}')
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_unknown_block(self, tmp_path):
        params = init_params(TINY)
        params["rogue"] = np.zeros(3)
        save_checkpoint(params, TINY, tmp_path / "m.json")
        with pytest.raises(ConfigError):
            load_checkpoint(tmp_path / "m.json")

    def test_missing_block(self, tmp_path):
        params = init_params(TINY)
        del params["out_b"]
        save_checkpoint(params, TINY, tmp_path / "m.json")
        with pytest.raises(ConfigError):
            load_checkpoint(tmp_path / "m.json")

    @pytest.mark.parametrize("mangle,match", [
        (lambda text: text[: len(text) // 2], None),
        (lambda text: "[]", None),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "config"}),
         None),
        (lambda text: json.dumps({**json.loads(text),
                                  "config": {**json.loads(text)["config"], "bogus": 1}}), None),
        (lambda text: _first_out_b(text, "NaN"), None),
        (lambda text: _first_out_b(text, "Infinity"), None),
        (lambda text: _first_out_b(text, "1e999"), None),
        # heads shapes no parameter, so a filled-in default would load another model
        (lambda text: _drop_config_keys(text, "heads"), "'heads'"),
        (lambda text: _drop_config_keys(text, "gated", "experts"), "'experts'"),
    ], ids=["truncated", "not-an-object", "no-config", "unknown-config-field", "nan",
            "infinity", "overflow", "no-heads", "no-gated-no-experts"])
    def test_malformed_file(self, tmp_path, mangle, match):
        path = tmp_path / "m.json"
        save_checkpoint(init_params(TINY), TINY, path)
        path.write_text(mangle(path.read_text()))
        with pytest.raises(ConfigError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value,kind", [
        ("segment_len", 4.0, "int"), ("seed", False, "int"), ("heads", "1", "int"),
        ("gated", 1, "bool"), ("fused", None, "bool"),
    ])
    def test_wrongly_typed_config_value(self, tmp_path, key, value, kind):
        # json.load reads 4.0 as a float and 1 as an int, and ModelConfig itself takes either
        path = tmp_path / "m.json"
        save_checkpoint(init_params(TINY), TINY, path)
        blob = json.loads(path.read_text())
        blob["config"][key] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=rf"^checkpoint config {key!r} must be {kind}$"):
            load_checkpoint(path)

    def test_wrong_shape(self, tmp_path):
        params = init_params(TINY)
        params["out_b"] = np.zeros(5)
        save_checkpoint(params, TINY, tmp_path / "m.json")
        with pytest.raises(ShapeError):
            load_checkpoint(tmp_path / "m.json")

    def test_save_peak_memory(self, tmp_path):
        params = init_params(DEFAULT)  # 0.69 MB of parameters, a 1.86 MB file
        tracemalloc.start()
        try:
            save_checkpoint(params, DEFAULT, tmp_path / "m.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: 2.29 MB writing one block at a time, 8.08 MB as one JSON text
        assert peak <= 3e6, f"saving peaks at {peak / 1e6:.2f} MB"

    def test_ungated_checkpoint_has_no_gate_blocks(self, tmp_path):
        import json

        config = ModelConfig(segment_len=4, dim=8, experts=1, gated=False)
        save_checkpoint(init_params(config), config, tmp_path / "m.json")
        blob = json.loads((tmp_path / "m.json").read_text())
        assert not any(name.startswith("gate") for name in blob["params"])


def _ulps(a, b):
    """Distance in units in the last place, through the ordered integer view of float64."""
    def ordered(v):
        i = np.asarray(v, dtype=np.float64).view(np.int64)
        return np.where(i < 0, np.int64(-2**63) - i, i)
    return np.abs(ordered(a) - ordered(b))


def _erf_grid():
    """A dense grid, Gaussian draws, tiny values, and each region boundary with its neighbours."""
    bounds = np.array([2.0**-28, 0.84375, 1.25, _ERF_SPLIT, 6.0])
    edges = np.concatenate([bounds, np.nextafter(bounds, 0), np.nextafter(bounds, 7)])
    tiny = np.array([5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-20])
    rng = np.random.default_rng(0)
    x = np.concatenate([np.linspace(-10, 10, 400_001), rng.normal(0, 2, 100_000), edges, tiny])
    return np.concatenate([x, -x])


class TestErf:
    def test_within_one_ulp_of_math_erf(self):
        x = _erf_grid()
        want = np.array([math.erf(v) for v in x.tolist()])
        assert _ulps(_erf(x), want).max() <= 1

    def test_within_four_ulp_of_scipy(self):
        special = pytest.importorskip("scipy.special")
        x = _erf_grid()
        assert _ulps(_erf(x), special.erf(x)).max() <= 4

    def test_saturates_exactly_and_keeps_special_values(self):
        big = np.array([6.0, 6.5, 27.0, 1e300, np.inf])
        assert np.array_equal(_erf(big), np.ones(5))
        assert np.array_equal(_erf(-big), -np.ones(5))
        assert np.isnan(_erf(np.nan))
        assert _erf(-0.0) == 0.0 and np.signbit(_erf(-0.0))
        assert _erf(0.0) == 0.0 and not np.signbit(_erf(0.0))

    def test_shapes(self):
        assert isinstance(_erf(0.5), float) and _erf(0.5) == _erf(np.array([0.5]))[0]
        assert np.shape(_erf(np.asarray(0.5))) == ()
        assert _erf(np.zeros(0)).shape == (0,)
        x = np.random.default_rng(1).normal(size=(2, 3, 4))
        assert np.array_equal(_erf(x), _erf(x.ravel()).reshape(2, 3, 4))
        assert np.array_equal(_erf(x[:, ::2, ::-1]), _erf(x[:, ::2, ::-1].copy()))

    @pytest.mark.parametrize("n", [_ERF_CHUNK - 1, _ERF_CHUNK, _ERF_CHUNK + 1])
    def test_chunks_give_elementwise_results(self, n):
        x = np.random.default_rng(n).normal(0, 3, n)
        assert np.array_equal(_erf(x), np.array([_erf(v) for v in x]))


def _digest(*arrays):
    """SHA-256 over each array's shape and raw bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _pin_grid():
    """Every erf region with its bound's neighbours on both sides, signed zeros, nan and infs."""
    bounds = np.array([2.0**-28, 0.84375, 1.25, _ERF_SPLIT, 6.0])
    edges = np.concatenate([bounds, np.nextafter(bounds, 0), np.nextafter(bounds, 7)])
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300])
    return np.concatenate([np.linspace(-7, 7, 20_001), edges, -edges, special])


class TestBitsPinned:
    """_erf and _layer_norm give the same bits as the reference versions recorded here;
    a faster rewrite must not move one of them."""

    ACT = np.random.default_rng(7).normal(0, 2, (1, 7, 128))  # evaluate's (1, N, 2D) shape

    def test_erf(self):
        assert _digest(_erf(_pin_grid())) == (
            "f394b2ce81affbec79219510ecdd39863cd42f3b85c75536471ad92e0ca81028")
        assert _digest(_erf(self.ACT)) == (
            "c9ee867efb0245f36f1266c761a27b3f210796e5fb905110551d6ba9730ea6f0")

    def test_erf_below_the_outer_regions(self):
        """Arrays that stop short of 0.84375, and of 1.25, skip the regions above them."""
        assert _digest(_erf(np.linspace(-0.84, 0.84, 1001))) == (
            "bb41962dbb7f7964b2b5ce629525b4dd300bc78813c9c6ee55a2b16a38d0c3b7")
        assert _digest(_erf(np.linspace(-1.2, 1.2, 1001))) == (
            "dc287c47c40976f70b771f073348353f4b5b2e652dea03b6eb136307ec6b495d")

    def test_layer_norm(self):
        scale = np.random.default_rng(8).uniform(0.5, 1.5, 128)
        assert _digest(*_layer_norm(self.ACT, scale)) == (
            "ca8fe0d06c2f22da1acc348ec538e87dbc9070e253d0714afca29800fa557a13")
        act = np.random.default_rng(9).normal(3, 5, (3, 5, 64))
        assert _digest(*_layer_norm(act, np.ones(64))) == (
            "3eae47fc0976be12ee86ae7110f895a0c9683425b36601846ee9a42e854704f3")
