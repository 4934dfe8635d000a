"""Loss arithmetic, the optimizer, window assembly, and the training loop."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from datetime import datetime, timedelta

import fusecast.textenc
import fusecast.train
from fusecast.data import TimeSeriesFrame, WindowSample, sample_windows
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
    metrics,
    train_model,
    window_segments,
)

HOURLY = timedelta(hours=1)
T0 = datetime(2020, 1, 1)


def dense_windows(x, te, future=None):
    """WindowTensors whose every segment has a row of its own: (W, N, S) x, (W, N, D) te.
    Window w's context is x[w], flattened, and its target is future[w] (empty if None)."""
    w, n, s = x.shape
    targets = np.empty((w, 0)) if future is None else future
    windows = [WindowSample(channel=0, context=c.reshape(-1), target=t, start=T0)
               for c, t in zip(x, targets)]
    return WindowTensors(values=x.reshape(-1, s), text=te.reshape(-1, te.shape[-1]),
                         rows=np.arange(w * n).reshape(w, n), windows=windows)


class TestLoss:
    def test_mse_by_hand(self):
        targets = np.array([[1.0, 2.0], [3.0, 4.0]])
        preds = np.array([[1.5, 2.0], [3.0, 2.0]])
        gate = np.full((2, 2), 0.5)
        total, mse, exp, _, _ = compute_loss(targets, preds, gate, lam=0.0, mode="literal")
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
            compute_loss(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 2)), 0.1, "literal")
        with pytest.raises(ShapeError):
            compute_loss(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 2)), 0.1, "literal")

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

        for mode in ("literal", "entropy"):
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
        data = dense_windows(x, te)
        trace, total, d_pred, d_gate = _batch_step(params, config, tconfig,
                                                   data.values, data.text, data.rows)
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
            dict(sparsity_mode="none"),  # lambda 0 trains without a penalty
            dict(seed=-1),
            dict(max_steps=-1),
            dict(lr=float("inf")),
            dict(lr=float("nan")),
            dict(lam=float("inf")),
            dict(lam=float("nan")),
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

    def make_frame(self, length=40, channels=1):
        t = np.arange(length, dtype=np.float64)
        values = np.stack([np.sin(t / 3.0 + c) + 0.01 * (c + 1) * t for c in range(channels)],
                          axis=1)
        stamps = tuple(T0 + int(i) * HOURLY for i in range(length))
        return TimeSeriesFrame(stamps, values, tuple(f"c{c}" for c in range(channels)), HOURLY)

    def test_assemble_windows_shapes(self):
        frame = self.make_frame()
        windows = list(sample_windows(frame, (0, 40), context_len=12, horizon=8))
        data = assemble_windows(windows, HOURLY, 4, ZeroTextSource(6))
        w = len(windows)
        x, te = data.values[data.rows], data.text[data.rows]
        assert x.shape == (w, 3, 4)
        assert te.shape == (w, 3, 6)
        assert data.rows.shape == (w, 3) and data.rows.dtype == np.intp
        # no future is copied: validation stacks the one segment it scores from the windows
        assert data.windows is windows
        assert not any(isinstance(v, np.ndarray) for k, v in vars(data).items()
                       if k not in ("values", "text", "rows"))

    @given(length=st.integers(21, 60), channels=st.integers(1, 3), segments=st.integers(1, 4),
           trim=st.integers(0, 5), horizon=st.integers(1, 5), segment_len=st.integers(1, 6),
           stride=st.integers(1, 7))
    def test_assembly_equals_stacked_window_tensors(self, length, channels, segments, trim,
                                                     horizon, segment_len, stride):
        assume(trim < segment_len)  # the oldest `trim` values of each context are dropped
        context = segments * segment_len + trim
        assume(context + horizon <= length)
        frame = self.make_frame(length, channels)
        windows = list(sample_windows(frame, (0, length), context, horizon, stride))
        source = PromptEncoder(dim=6, seed=0)
        data = assemble_windows(windows, HOURLY, segment_len, source)
        # the per-window path: each window's segments, each prompt embedded by the source
        tensors = [window_segments(w.context, w.start, HOURLY, segment_len) for w in windows]
        x, te = data.values[data.rows], data.text[data.rows]
        for got, want in ((x, np.stack([t[0] for t in tensors])),
                          (te, np.array([[source.embed(p) for p in t[1]] for t in tensors]))):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert data.windows is windows  # no copied future; TestTrainingLoop checks val targets
        keys = {(prompt, segment.tobytes()) for w in windows
                for segment, prompt in zip(*window_segments(w.context, w.start, HOURLY,
                                                            segment_len))}
        assert len(data.values) == len(data.text) == len(keys)  # each distinct segment once

    def two_channel_windows(self, offset):
        frame = self.make_frame(40)
        values = np.concatenate([frame.values, frame.values + offset], axis=1)
        frame = TimeSeriesFrame(frame.timestamps, values, ("a", "b"), HOURLY)
        windows = list(sample_windows(frame, (0, 40), context_len=12, horizon=4, stride=2))
        return windows, assemble_windows(windows, HOURLY, 4, PromptEncoder(dim=6, seed=0))

    def test_equal_prompts_over_unequal_values_keep_their_own_rows(self):
        windows, data = self.two_channel_windows(1e-12)
        half = len(windows) // 2
        for a, b in zip(windows[:half], windows[half:]):  # the same span in channel a and b
            assert window_segments(a.context, a.start, HOURLY, 4)[1] == \
                window_segments(b.context, b.start, HOURLY, 4)[1]
        assert not np.intersect1d(data.rows[:half], data.rows[half:]).size
        x = data.values[data.rows]
        want = np.stack([window_segments(w.context, w.start, HOURLY, 4)[0] for w in windows])
        assert x.tobytes() == want.tobytes()

    def test_identical_channels_share_rows(self):
        windows, data = self.two_channel_windows(0.0)
        half = len(windows) // 2
        np.testing.assert_array_equal(data.rows[:half], data.rows[half:])
        assert len(data.values) == len(np.unique(data.rows[:half]))

    def test_assembly_retains_the_table_not_dense_windows(self):
        frame = self.make_frame(400)
        windows = list(sample_windows(frame, (0, 400), context_len=96, horizon=8, stride=1))
        source = PromptEncoder(dim=32, seed=0)
        assemble_windows(windows, HOURLY, 8, source)  # fills the encoder's memo first
        tracemalloc.start()
        try:
            data = assemble_windows(windows, HOURLY, 8, source)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        table = data.values.nbytes + data.text.nbytes + data.rows.nbytes
        dense_te = data.rows.size * data.text.shape[1] * 8
        assert data.rows.shape == (len(windows), 12)
        assert len(data.values) < 2 * len(windows)  # stride 1: one new segment per window
        assert table + 4096 < dense_te
        assert kept <= table + 4096, f"assembly keeps {kept} bytes for a {table}-byte table"

    @pytest.mark.parametrize("contexts, futures", [((96, 48), (24, 24)), ((48, 96), (24, 24)),
                                                   ((96, 96), (24, 12))])
    def test_assembly_refuses_windows_of_unequal_shape(self, contexts, futures):
        windows = [WindowSample(channel=0, context=np.arange(float(c)), target=np.zeros(f),
                                start=T0) for c, f in zip(contexts, futures)]
        with pytest.raises(ShapeError, match="^window 1 "):
            assemble_windows(windows, HOURLY, 24, ZeroTextSource(6))

    def test_assembly_takes_a_trimmed_window_of_equal_shape(self):
        windows = [WindowSample(channel=0, context=np.arange(float(c)), target=np.zeros(24),
                                start=T0) for c in (96, 100)]  # 100 trims to 96's 4 segments
        data = assemble_windows(windows, HOURLY, 24, ZeroTextSource(6))
        assert data.values[data.rows].tobytes() == np.stack(
            [window_segments(w.context, w.start, HOURLY, 24)[0] for w in windows]).tobytes()

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

        def spy(prompt, dim, seed, memo):
            encoded.append(prompt)
            return encode_prompt(prompt, dim, seed, memo)

        monkeypatch.setattr(fusecast.textenc, "encode_prompt", spy)
        data = assemble_windows(windows, HOURLY, 4, PromptEncoder(dim=6, seed=0))
        assert sorted(encoded) == sorted(distinct)
        direct = np.stack([[encode_prompt(p, 6, 0) for p in window] for window in prompts])
        np.testing.assert_array_equal(data.text[data.rows], direct)


class TestEvaluateWindows:
    def test_scores_final_position_against_future(self):
        config = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1, seed=0)
        params = init_params(config)
        rng = np.random.default_rng(5)
        data = dense_windows(x=rng.normal(size=(6, 3, 4)), te=rng.normal(size=(6, 3, 8)))
        future = rng.normal(size=(6, 2))  # shorter than a segment
        mse, mae, entropy, alpha = evaluate_windows(params, config, data, future)
        trace = forward(params, config, data.values[data.rows], data.text[data.rows])
        diff = trace.pred[:, -1, :2] - future
        assert mse == pytest.approx(float((diff**2).mean()), abs=1e-15)
        assert mae == pytest.approx(float(np.abs(diff).mean()), abs=1e-15)
        assert alpha == 0.5
        assert 0.0 < entropy <= np.log(2.0) + 1e-12


    def test_one_trace_free_forward(self, monkeypatch):
        config = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1, seed=0)
        rng = np.random.default_rng(5)
        data = dense_windows(x=rng.normal(size=(6, 3, 4)), te=rng.normal(size=(6, 3, 8)))
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return forward(*args, **kwargs)

        monkeypatch.setattr(fusecast.train, "forward", spy)
        evaluate_windows(init_params(config), config, data, rng.normal(size=(6, 4)))
        assert len(calls) == 1 and calls[0].keys() == {"keep_trace", "rows"}
        assert calls[0]["keep_trace"] is False and calls[0]["rows"] is data.rows


class TestBatchStep:
    @pytest.mark.parametrize("config", [
        ModelConfig(segment_len=4, dim=8, experts=3, layers=1, heads=2, seed=1),
        ModelConfig(segment_len=4, dim=8, experts=1, layers=0, gated=False, fused=False),
    ], ids=["gated", "ungated"])
    def test_table_rows_bit_equal_to_their_dense_gather(self, config):
        """Stride-1 windows share segments: window b is table rows b..b+3, some rows twice.
        The same windows as a table with a row for each of their segments agree bit for bit."""
        rng = np.random.default_rng(11)
        values, text = rng.normal(size=(9, 4)), rng.normal(size=(9, 8)) / 4.0
        rows = np.concatenate([np.arange(6)[:, None] + np.arange(4), [[0, 1, 2, 3]]])
        params = init_params(config)
        tconfig = TrainConfig(lam=0.05, sparsity_mode="entropy")
        table = _batch_step(params, config, tconfig, values, text, rows)
        gathered = dense_windows(values[rows], text[rows])
        dense = _batch_step(params, config, tconfig, gathered.values, gathered.text, gathered.rows)
        assert table[1] == dense[1]  # the loss
        for got, want in zip(table[2:], dense[2:]):  # d_pred and d_gate
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        table_grads, dense_grads = (backward(params, config, step[0], *step[2:])
                                    for step in (table, dense))
        assert table_grads.keys() == dense_grads.keys() == params.keys()
        for name in params:
            assert table_grads[name].tobytes() == dense_grads[name].tobytes(), name


def build_training_sets(seed=0, windows=24, n=3, s=4, dim=8):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(windows, n, s))
    te = rng.normal(size=(windows, n, dim)) / 4.0
    future = x[:, -1, :] * 0.5  # arbitrary but learnable-ish
    return dense_windows(x=x, te=te, future=future)


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

        def evaluate_spy(params, mconfig, data, targets):
            # no gc.collect(): reference counting alone must have freed them
            alive_at_validation.append(sum(ref() is not None for ref in step_refs))
            return evaluate(params, mconfig, data, targets)

        monkeypatch.setattr(fusecast.train, "backward", backward_spy)
        monkeypatch.setattr(fusecast.train, "evaluate_windows", evaluate_spy)
        train, val = build_training_sets(0), build_training_sets(1, windows=8)
        train_model(init_params(self.CONFIG), self.CONFIG, TrainConfig(epochs=2, batch=8),
                    train, val)
        assert len(step_refs) > 0
        assert alive_at_validation == [0, 0]

    def test_each_step_passes_the_table_and_its_rows(self, monkeypatch):
        """A train step hands forward the table itself; forward alone gathers the batch."""
        train, val = build_training_sets(0), build_training_sets(1, windows=8)
        calls = []

        def spy(params, mconfig, x, te, **kwargs):
            calls.append((x, te, kwargs))
            return forward(params, mconfig, x, te, **kwargs)

        monkeypatch.setattr(fusecast.train, "forward", spy)
        train_model(init_params(self.CONFIG), self.CONFIG, TrainConfig(epochs=2, batch=8),
                    train, val)
        steps = [call for call in calls if call[2].get("keep_trace", True)]
        assert len(steps) == 6  # 24 windows make 3 batches of 8 in each epoch
        for x, te, kwargs in steps:
            assert x is train.values and te is train.text
            assert kwargs["rows"].shape == (8, 3)
        for epoch in (steps[:3], steps[3:]):  # each epoch visits every window once
            seen = np.concatenate([kwargs["rows"] for _, _, kwargs in epoch])
            assert sorted(map(tuple, seen)) == sorted(map(tuple, train.rows))

    @pytest.mark.parametrize("horizon", [3, 8], ids=["shorter-than-a-segment", "longer"])
    def test_validation_scores_the_first_segment_of_each_val_target(self, monkeypatch, horizon):
        """Each epoch's val MSE and MAE are metrics(pred[:, -1, :F], stack(target[:S])), bit
        for bit, where F <= S is the length of each val window's target up to one segment."""
        windows = list(sample_windows(TestWindowAssembly().make_frame(60), (0, 60),
                                      context_len=12, horizon=horizon, stride=2))
        source = PromptEncoder(dim=8, seed=0)
        train, val = (assemble_windows(w, HOURLY, 4, source) for w in (windows[:12], windows[12:]))
        evaluate, scored = fusecast.train.evaluate_windows, []

        def spy(params, mconfig, data, targets):
            scored.append(({k: v.copy() for k, v in params.items()}, targets))
            return evaluate(params, mconfig, data, targets)

        monkeypatch.setattr(fusecast.train, "evaluate_windows", spy)
        result = train_model(init_params(self.CONFIG), self.CONFIG, TrainConfig(epochs=2, batch=8),
                             train, val)
        want = np.stack([w.target[:4] for w in windows[12:]])
        assert len(scored) == len(result.curve) == 2 and want.shape[1] == min(horizon, 4)
        for (params, targets), row in zip(scored, result.curve):
            assert targets.dtype == np.float64 and targets.flags.c_contiguous
            assert targets.shape == want.shape and targets.tobytes() == want.tobytes()
            pred = forward(params, self.CONFIG, val.values, val.text, keep_trace=False,
                           rows=val.rows).pred
            assert (row["val_mse"], row["val_mae"]) == metrics(pred[:, -1, :want.shape[1]], want)

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

    def test_a_non_finite_validation_mse_is_refused(self):
        train, val = build_training_sets(0), build_training_sets(1, windows=8)
        config = TrainConfig(lr=1e300, epochs=1, batch=8, max_steps=1)
        with np.errstate(all="ignore"), pytest.raises(ConfigError, match="at epoch 0: "):
            train_model(init_params(self.CONFIG), self.CONFIG, config, train, val)

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
        train = dense_windows(x=x, te=te, future=x[:, -1, :] * 0.5)
        val = dense_windows(x=x[:8], te=te[:8], future=x[:8, -1, :] * 0.5)
        params = init_params(self.CONFIG)
        config = TrainConfig(lr=1e-2, lam=0.0, epochs=10, batch=16, sparsity_mode="literal")
        result = train_model(params, self.CONFIG, config, train, val)
        assert result.curve[-1]["train_loss"] < result.curve[0]["train_loss"]

