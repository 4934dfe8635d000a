"""Loss arithmetic, the optimizer, window assembly, and the training loop."""

import weakref

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from datetime import datetime, timedelta

import fusecast.textenc
import fusecast.train
from fusecast.data import TimeSeriesFrame, sample_windows
from fusecast.descriptors import render_prompt, segment_series
from fusecast.errors import ConfigError, NonFiniteGradient, ShapeError
from fusecast.model import ModelConfig, backward, forward, init_params
from fusecast.textenc import PromptEncoder, ZeroTextSource
from fusecast.train import (
    OptState,
    TrainConfig,
    WindowTensors,
    _batch_step,
    adamw_step,
    assemble_windows,
    compute_loss,
    evaluate_windows,
    init_opt_state,
    train_model,
    window_segments,
    window_tensors,
)

HOURLY = timedelta(hours=1)
T0 = datetime(2020, 1, 1)


class TestLoss:
    def test_mse_by_hand(self):
        targets = np.array([[1.0, 2.0], [3.0, 4.0]])
        preds = np.array([[1.5, 2.0], [3.0, 2.0]])
        gate = np.full((2, 2), 0.5)
        total, mse, exp, _, _ = compute_loss(targets, preds, gate, lam=0.0, mode="none")
        # squared errors: 0.25 + 0 + 0 + 4 over B*S = 4 cells
        assert mse == pytest.approx(4.25 / 4, abs=1e-15)
        assert exp == 0.0 and total == mse

    def test_literal_penalty_is_lambda_times_rows(self):
        gate = np.array([[0.25, 0.75], [0.9, 0.1], [0.5, 0.5]])
        zeros = np.zeros((3, 2))
        total, mse, exp, _, _ = compute_loss(zeros, zeros, gate, lam=0.1, mode="literal")
        assert mse == 0.0
        assert exp == pytest.approx(0.1 * 3, abs=1e-12)  # row-stochastic: sum |G| = rows
        assert total == exp

    def test_entropy_penalty_by_hand(self):
        gate = np.array([[0.5, 0.5]])
        zeros = np.zeros((1, 2))
        exp = compute_loss(zeros, zeros, gate, lam=2.0, mode="entropy")[2]
        assert exp == pytest.approx(2.0 * np.log(2.0), abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            compute_loss(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 2)), 0.1, "none")
        with pytest.raises(ShapeError):
            compute_loss(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 2)), 0.1, "none")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            compute_loss(np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1)), 0.1, "l2")

    def test_penalty_grad_matches_loss(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 3))
        gate = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        targets, preds = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        h = 1e-7

        def numeric(point, loss_of):
            # treat the entries as free variables and difference one at a time
            fd = np.zeros_like(point)
            for idx in np.ndindex(point.shape):
                bumped = point.copy()
                bumped[idx] += h
                up = loss_of(bumped)
                bumped[idx] -= 2 * h
                fd[idx] = (up - loss_of(bumped)) / (2 * h)
            return fd

        for mode in ("literal", "entropy", "none"):
            _, _, _, d_pred, d_gate = compute_loss(targets, preds, gate, 0.3, mode)
            assert d_pred.shape == preds.shape and d_gate.shape == gate.shape
            fd_gate = numeric(gate, lambda g: compute_loss(targets, preds, g, 0.3, mode)[2])
            fd_pred = numeric(preds, lambda p: compute_loss(targets, p, gate, 0.3, mode)[0])
            np.testing.assert_allclose(d_gate, fd_gate, atol=1e-5)
            np.testing.assert_allclose(d_pred, fd_pred, atol=1e-5)

    def test_saturated_gate_entropy_is_finite(self):
        # a one-hot gate row holds an exact 0, whose entropy term is 0 * log 0 = 0
        zeros = np.zeros((1, 2))
        out = compute_loss(zeros, zeros, np.array([[1.0, 0.0]]), 0.1, "entropy")
        assert out[2] == 0.0
        assert all(np.all(np.isfinite(part)) for part in out)

    def test_saturated_gate_trains_finite(self):
        config = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1, seed=0)
        params = init_params(config)
        params["gate_b"] = np.array([800.0, -800.0])  # softmax underflows to [1, 0]
        rng = np.random.default_rng(7)
        x, te = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 8))
        tconfig = TrainConfig(lam=0.05, sparsity_mode="entropy")
        trace, total, d_pred, d_gate = _batch_step(params, config, tconfig, x, te)
        assert np.isfinite(total)
        grads = backward(params, config, trace, d_pred, d_gate)
        for name, grad in grads.items():
            assert np.all(np.isfinite(grad)), name


class TestAdamW:
    def test_first_step_closed_form(self):
        # bias corrections cancel at t=1: delta = -lr * g / (|g| + eps)
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.37, -0.11])}
        config = TrainConfig(lr=1e-3)
        adamw_step(params, grads, init_opt_state(params), config)
        expected = np.array([1.0, -2.0]) - 1e-3 * grads["w"] / (np.abs(grads["w"]) + 1e-8)
        np.testing.assert_allclose(params["w"], expected, atol=1e-15)

    def test_two_steps_match_reference(self):
        rng = np.random.default_rng(1)
        w0 = rng.normal(size=4)
        g1, g2 = rng.normal(size=4), rng.normal(size=4)
        params = {"w": w0.copy()}
        state = init_opt_state(params)
        config = TrainConfig(lr=0.01)
        adamw_step(params, {"w": g1}, state, config)
        adamw_step(params, {"w": g2}, state, config)

        # straight textbook recurrence
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        m = v = np.zeros(4)
        w = w0.copy()
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w = w - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(params["w"], w, atol=1e-15)

    def test_decoupled_weight_decay(self):
        params = {"w": np.array([2.0]), "theta": np.asarray(0.8)}
        grads = {"w": np.array([0.0]), "theta": np.asarray(0.0)}
        config = TrainConfig(lr=0.1, weight_decay=0.5)
        adamw_step(params, grads, init_opt_state(params), config)
        # zero gradient: only the multiplicative shrink applies, and theta is exempt
        assert params["w"][0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), abs=1e-15)
        assert float(params["theta"]) == 0.8

    def test_nonfinite_gradient_names_block(self):
        params = {"seg_b": np.zeros(3), "out_b": np.zeros(2)}
        grads = {"seg_b": np.array([0.0, np.nan, 0.0]), "out_b": np.zeros(2)}
        with pytest.raises(NonFiniteGradient) as info:
            adamw_step(params, grads, init_opt_state(params), TrainConfig())
        assert info.value.param == "seg_b"

    def test_step_counter(self):
        params = {"w": np.zeros(1)}
        state = init_opt_state(params)
        for expected in (1, 2, 3):
            adamw_step(params, {"w": np.ones(1)}, state, TrainConfig())
            assert state.step == expected


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lr=0.0),
            dict(lam=-0.1),
            dict(epochs=0),
            dict(batch=0),
            dict(sparsity_mode="l1"),
            dict(seed=-1),
            dict(max_steps=-1),
            dict(lr=float("inf")),
            dict(lr=float("nan")),
            dict(lam=float("inf")),
            dict(lam=float("nan")),
            dict(weight_decay=-5.0),
            dict(weight_decay=float("inf")),
            dict(weight_decay=float("nan")),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestWindowAssembly:
    def test_front_trim_keeps_tail(self):
        """A context that is not a segment multiple loses its OLDEST values."""
        values = np.arange(10.0)
        x, prompts = window_segments(values, T0, HOURLY, segment_len=3)
        assert x.shape == (3, 3)
        np.testing.assert_array_equal(x[0], [1.0, 2.0, 3.0])  # value 0 dropped
        np.testing.assert_array_equal(x[-1], [7.0, 8.0, 9.0])
        assert len(prompts) == 3

    def test_prompts_follow_trimmed_timestamps(self):
        values = np.arange(10.0)
        _, prompts = window_segments(values, T0, HOURLY, segment_len=3)
        segs = segment_series(values[1:], T0 + HOURLY, 3, HOURLY)
        assert prompts == [render_prompt(s) for s in segs]

    def test_aligned_context_untouched(self):
        values = np.arange(12.0)
        x, _ = window_segments(values, T0, HOURLY, segment_len=4)
        np.testing.assert_array_equal(x.reshape(-1), values)

    def test_context_shorter_than_segment(self):
        with pytest.raises(ConfigError):
            window_segments(np.arange(3.0), T0, HOURLY, segment_len=4)

    def test_window_tensors_embed_prompts(self):
        enc = PromptEncoder(dim=6, seed=0)
        values = np.arange(8.0)
        x, te = window_tensors(values, T0, HOURLY, 4, enc)
        _, prompts = window_segments(values, T0, HOURLY, 4)
        assert x.shape == (2, 4) and te.shape == (2, 6)
        np.testing.assert_array_equal(te[0], enc.embed(prompts[0]))

    def make_frame(self, length=40):
        t = np.arange(length, dtype=np.float64)
        values = np.stack([np.sin(t / 3.0) + 0.01 * t], axis=1)
        stamps = tuple(T0 + int(i) * HOURLY for i in range(length))
        return TimeSeriesFrame(stamps, values, ("OT",), HOURLY)

    def test_assemble_windows_shapes(self):
        frame = self.make_frame()
        windows = list(sample_windows(frame, (0, 40), context_len=12, horizon=8))
        data = assemble_windows(windows, HOURLY, 4, ZeroTextSource(6))
        w = len(windows)
        assert data.x.shape == (w, 3, 4)
        assert data.te.shape == (w, 3, 6)
        assert data.future.shape == (w, 4)  # the one segment that scoring reads

    @given(length=st.integers(21, 60), context=st.integers(1, 16), horizon=st.integers(1, 5),
           segment_len=st.integers(1, 6), stride=st.integers(1, 7))
    def test_assembly_equals_stacked_window_tensors(self, length, context, horizon,
                                                     segment_len, stride):
        assume(segment_len <= context)  # a context shorter than a segment is refused
        frame = self.make_frame(length)
        windows = list(sample_windows(frame, (0, length), context, horizon, stride))
        source = PromptEncoder(dim=6, seed=0)
        data = assemble_windows(windows, HOURLY, segment_len, source)
        tensors = [window_tensors(w.context, w.start, HOURLY, segment_len, source)
                   for w in windows]
        for got, want in ((data.x, np.stack([x for x, _ in tensors])),
                          (data.te, np.stack([te for _, te in tensors])),
                          (data.future, np.stack([w.target[:segment_len] for w in windows]))):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_assemble_rejects_empty(self):
        with pytest.raises(ConfigError):
            assemble_windows([], HOURLY, 4, ZeroTextSource(6))

    def test_assembly_encodes_each_distinct_prompt_once(self, monkeypatch):
        frame = self.make_frame()
        windows = list(sample_windows(frame, (0, 40), context_len=12, horizon=4, stride=1))
        prompts = [window_segments(w.context, w.start, HOURLY, 4)[1] for w in windows]
        distinct = {p for window in prompts for p in window}
        assert len(distinct) < sum(map(len, prompts))  # stride-1 windows share segments
        encode_prompt = fusecast.textenc.encode_prompt
        encoded = []

        def spy(prompt, dim, seed):
            encoded.append(prompt)
            return encode_prompt(prompt, dim, seed)

        monkeypatch.setattr(fusecast.textenc, "encode_prompt", spy)
        data = assemble_windows(windows, HOURLY, 4, PromptEncoder(dim=6, seed=0))
        assert sorted(encoded) == sorted(distinct)
        direct = np.stack([[encode_prompt(p, 6, 0) for p in window] for window in prompts])
        np.testing.assert_array_equal(data.te, direct)


class TestEvaluateWindows:
    def test_scores_final_position_against_future(self):
        config = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1, seed=0)
        params = init_params(config)
        rng = np.random.default_rng(5)
        data = WindowTensors(
            x=rng.normal(size=(6, 3, 4)),
            te=rng.normal(size=(6, 3, 8)),
            future=rng.normal(size=(6, 2)),  # shorter than a segment
        )
        mse, mae, entropy, alpha = evaluate_windows(params, config, data)
        trace = forward(params, config, data.x, data.te)
        diff = trace.pred[:, -1, :2] - data.future
        assert mse == pytest.approx(float((diff**2).mean()), abs=1e-15)
        assert mae == pytest.approx(float(np.abs(diff).mean()), abs=1e-15)
        assert alpha == 0.5
        assert 0.0 < entropy <= np.log(2.0) + 1e-12


    def test_one_trace_free_forward(self, monkeypatch):
        config = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1, seed=0)
        rng = np.random.default_rng(5)
        data = WindowTensors(x=rng.normal(size=(6, 3, 4)), te=rng.normal(size=(6, 3, 8)),
                             future=rng.normal(size=(6, 4)))
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return forward(*args, **kwargs)

        monkeypatch.setattr(fusecast.train, "forward", spy)
        evaluate_windows(init_params(config), config, data)
        assert calls == [{"keep_trace": False}]


def build_training_sets(seed=0, windows=24, n=3, s=4, dim=8):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(windows, n, s))
    te = rng.normal(size=(windows, n, dim)) / 4.0
    future = x[:, -1, :] * 0.5  # arbitrary but learnable-ish
    return WindowTensors(x=x, te=te, future=future)


class TestTrainingLoop:
    CONFIG = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1, seed=0)

    def test_bitwise_reproducible(self):
        train, val = build_training_sets(0), build_training_sets(1, windows=8)
        results, finals = [], []
        for _ in range(2):
            params = init_params(self.CONFIG)  # train_model leaves the final params here
            results.append(
                train_model(params, self.CONFIG, TrainConfig(epochs=3, batch=8), train, val)
            )
            finals.append(params)
        a, b = results
        assert a.curve == b.curve
        for name in finals[0]:
            np.testing.assert_array_equal(finals[0][name], finals[1][name])
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_best_checkpoint_tracks_curve_minimum(self):
        train, val = build_training_sets(0), build_training_sets(1, windows=8)
        params = init_params(self.CONFIG)
        result = train_model(params, self.CONFIG, TrainConfig(epochs=5, batch=8), train, val)
        curve_mse = [row["val_mse"] for row in result.curve]
        assert result.best_val_mse == min(curve_mse)
        assert result.best_epoch == int(np.argmin(curve_mse))
        assert result.best_val_mae == result.curve[result.best_epoch]["val_mae"]
        assert len(result.curve) == 5
        for row in result.curve:
            assert set(row) == {
                "epoch", "train_loss", "val_mse", "val_mae", "mean_gate_entropy", "alpha",
            }

    def test_best_params_are_a_snapshot(self):
        train, val = build_training_sets(0), build_training_sets(1, windows=8)
        params = init_params(self.CONFIG)
        result = train_model(params, self.CONFIG, TrainConfig(epochs=4, batch=8), train, val)
        assert result.params is not params
        assert not any(np.shares_memory(result.params[k], params[k]) for k in params)
        assert result.best_epoch < len(result.curve) - 1
        assert any(not np.array_equal(result.params[k], params[k]) for k in params)

    def test_no_step_trace_outlives_its_step(self, monkeypatch):
        """Validation runs while no training step's trace or gradients are alive."""
        backward, evaluate = fusecast.train.backward, fusecast.train.evaluate_windows
        step_refs, alive_at_validation = [], []

        def backward_spy(params, mconfig, trace, d_pred, d_gate):
            grads = backward(params, mconfig, trace, d_pred, d_gate)
            step_refs.append(weakref.ref(trace))
            step_refs.extend(weakref.ref(grad) for grad in grads.values())
            return grads

        def evaluate_spy(params, mconfig, data):
            # no gc.collect(): reference counting alone must have freed them
            alive_at_validation.append(sum(ref() is not None for ref in step_refs))
            return evaluate(params, mconfig, data)

        monkeypatch.setattr(fusecast.train, "backward", backward_spy)
        monkeypatch.setattr(fusecast.train, "evaluate_windows", evaluate_spy)
        train, val = build_training_sets(0), build_training_sets(1, windows=8)
        train_model(init_params(self.CONFIG), self.CONFIG, TrainConfig(epochs=2, batch=8),
                    train, val)
        assert len(step_refs) > 0
        assert alive_at_validation == [0, 0]

    def test_max_steps(self):
        train, val = build_training_sets(0), build_training_sets(1, windows=8)
        params = init_params(self.CONFIG)
        config = TrainConfig(epochs=50, batch=8, max_steps=5)
        result = train_model(params, self.CONFIG, config, train, val)
        assert result.steps == 5

    def test_max_steps_0_is_no_cap(self):
        train, val = build_training_sets(0), build_training_sets(1, windows=8)
        config = TrainConfig(epochs=2, batch=8, max_steps=0)
        result = train_model(init_params(self.CONFIG), self.CONFIG, config, train, val)
        assert result.steps == 6  # 24 windows make 3 batches of 8 in each epoch

    def test_needs_two_segments(self):
        train = build_training_sets(0, n=1)
        with pytest.raises(ConfigError):
            train_model(init_params(self.CONFIG), self.CONFIG, TrainConfig(), train, train)

    def test_loss_decreases_on_learnable_data(self):
        # each segment is half the previous one, so next-segment prediction
        # is an exactly learnable linear map
        rng = np.random.default_rng(3)
        first = rng.normal(size=(32, 1, 4))
        x = np.concatenate([first, first * 0.5, first * 0.25], axis=1)
        te = rng.normal(size=(32, 3, 8)) / 4.0
        train = WindowTensors(x=x, te=te, future=x[:, -1, :] * 0.5)
        val = WindowTensors(x=x[:8], te=te[:8], future=train.future[:8])
        params = init_params(self.CONFIG)
        config = TrainConfig(lr=1e-2, epochs=10, batch=16, sparsity_mode="none")
        result = train_model(params, self.CONFIG, config, train, val)
        assert result.curve[-1]["train_loss"] < result.curve[0]["train_loss"]

