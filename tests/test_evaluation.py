"""Metrics, baselines, rolling forecasts, and the comparison harnesses."""

from collections import Counter
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from datetime import datetime, timedelta
from hypothesis import given, strategies as st

from fusecast import evaluation
from fusecast.data import sample_windows
from fusecast.errors import ConfigError
from fusecast.evaluation import (
    ABLATION_ROWS,
    HORIZONS,
    ablation_run,
    forecast_windows,
    format_promotion,
    metrics,
    persistence_baseline,
    promotion_percent,
    promotion_run,
    render_ablation_table,
    render_promotion_table,
    render_table,
    rolling_forecast,
    train_variants,
)
from fusecast.model import ModelConfig, forward, init_params
from fusecast.textenc import PromptEncoder, ZeroTextSource
from fusecast.train import TrainConfig, assemble_windows, train_model, window_segments
from fusecast.synth import SynthSpec, generate

HOURLY = timedelta(hours=1)
T0 = datetime(2020, 1, 1)
CONFIG = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=1, seed=0)


class TestMetrics:
    def test_by_hand(self):
        mse, mae = metrics([1.0, 2.0, 3.0], [1.0, 4.0, 2.0])
        assert mse == pytest.approx((0 + 4 + 1) / 3, abs=1e-15)
        assert mae == pytest.approx((0 + 2 + 1) / 3, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError, match=r"^prediction shape \(3,\) != truth shape \(4,\)$"):
            metrics(np.zeros(3), np.zeros(4))

    def test_standard_horizons(self):
        assert HORIZONS == (96, 192, 336, 720)


class TestPersistence:
    def test_repeats_last_value(self):
        pred = persistence_baseline([1.0, 5.0, 3.0], 4)
        np.testing.assert_array_equal(pred, [3.0, 3.0, 3.0, 3.0])

    def test_constant_series_scores_zero(self):
        context = np.full(10, 2.5)
        pred = persistence_baseline(context, 6)
        mse, mae = metrics(pred, np.full(6, 2.5))
        assert mse == 0.0 and mae == 0.0

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_bad_horizon(self, horizon):
        with pytest.raises(ConfigError, match=f"horizon must be >= 1, got {horizon}"):
            persistence_baseline([1.0], horizon)

    def test_empty_context(self):
        with pytest.raises(ConfigError, match="^empty context$"):
            persistence_baseline([], 3)


class TestPromotionFormat:
    def test_pinned_pair(self):
        assert format_promotion(0.269, 0.239) == "+11.1%"

    def test_identical_is_zero(self):
        assert format_promotion(0.3, 0.3) == "+0.0%"

    def test_regression_is_negative(self):
        assert format_promotion(0.3, 0.33) == "-10.0%"

    def test_tiny_regression_never_shows_minus_zero(self):
        assert format_promotion(1.0, 1.0000001) == "+0.0%"

    def test_percent_formula(self):
        assert promotion_percent(0.4, 0.3) == pytest.approx(25.0, abs=1e-12)
        assert promotion_percent(0.25, 0.5) == pytest.approx(-100.0, abs=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.001, max_value=10.0),
    )
    def test_never_overstates(self, original, new):
        """Truncation toward zero: the printed magnitude is a lower bound."""
        text = format_promotion(original, new)
        assert text.endswith("%") and text[0] in "+-"
        shown = float(text[:-1])
        actual = promotion_percent(original, new)
        assert abs(shown) <= abs(actual) + 1e-9
        assert abs(shown - actual) < 0.1 + 1e-9
        if actual >= 0:
            assert shown >= 0.0


def make_context(length=12):
    return np.sin(np.arange(length, dtype=np.float64) / 3.0)


class TestRollingForecast:
    ENC = PromptEncoder(8, 0)

    def forecast(self, horizon, context=None, config=CONFIG):
        context = make_context() if context is None else context
        params = init_params(config)
        return rolling_forecast(params, config, context, T0, HOURLY, horizon, self.ENC)

    def test_exact_length(self):
        for horizon in (1, 3, 4, 5, 11):
            assert self.forecast(horizon).shape == (horizon,)

    def test_prefix_property(self):
        """A longer forecast starts with the shorter one, bitwise."""
        short = self.forecast(5)
        long = self.forecast(13)
        np.testing.assert_array_equal(long[:5], short)

    def test_single_roll_matches_direct_forward(self):
        context = make_context(12)  # exact multiple of segment_len
        params = init_params(CONFIG)
        x, prompts = window_segments(context, T0, HOURLY, 4)
        te = np.stack([self.ENC.embed(p) for p in prompts])
        direct = forward(params, CONFIG, x[None], te[None]).pred[0, -1]
        for horizon in (1, 2, 4):
            got = rolling_forecast(params, CONFIG, context, T0, HOURLY, horizon, self.ENC)
            np.testing.assert_array_equal(got, direct[:horizon])

    def test_one_trace_free_forward_per_roll(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return forward(*args, **kwargs)

        monkeypatch.setattr(evaluation, "forward", spy)
        self.forecast(9)  # 3 rolls of 4 values
        assert calls == [{"keep_trace": False}] * 3

    def test_front_trim_equivalence(self):
        """Dropping the values the model cannot see anyway changes nothing."""
        full = make_context(10)  # 10 values, segment_len 4: front 2 unused
        a = self.forecast(9, context=full)
        params = init_params(CONFIG)
        b = rolling_forecast(params, CONFIG, full[2:], T0 + 2 * HOURLY, HOURLY, 9, self.ENC)
        np.testing.assert_array_equal(a, b)

    def test_bad_horizon(self):
        with pytest.raises(ConfigError, match="horizon must be >= 1, got 0"):
            self.forecast(0)

    def test_short_context(self):
        with pytest.raises(ConfigError):
            self.forecast(4, context=np.zeros(3))


class TestValidationIsTheFirstRoll:
    @pytest.mark.parametrize("config, context_len", [
        (ModelConfig(), 168),  # the default config
        (ModelConfig(dim=32, layers=0), 96),  # the Quick start's model
    ], ids=["default", "quick"])
    def test_final_position_of_a_val_table_is_one_roll(self, config, context_len):
        """Validation scores forward's final position over an assembled stride-1 table;
        a horizon-segment_len roll of each window forecasts the same values."""
        frame = generate(SynthSpec(kind="two-regime", length=context_len + 64))
        horizon = config.segment_len
        windows = list(sample_windows(frame, (0, frame.length), context_len, horizon, stride=1))
        assert len(windows) > 32  # more than one slab of the trace-free forward
        enc = PromptEncoder(config.dim, 0)
        params = init_params(config)
        table = assemble_windows(windows, HOURLY, config.segment_len, enc)
        got = forward(params, config, table.values, table.text, keep_trace=False,
                      rows=table.rows).pred[:, -1]
        want = np.stack([rolling_forecast(params, config, w.context, w.start, HOURLY, horizon,
                                          enc) for w in windows])
        # another BLAS may block a slab of windows differently from one window alone
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestForecastWindows:
    def test_horizon_beyond_target(self):
        frame = generate(SynthSpec(kind="sine", length=60))
        windows = list(sample_windows(frame, (0, 60), context_len=8, horizon=4, stride=10))
        with pytest.raises(ConfigError, match="^window future has 4 values < horizon 6$"):
            forecast_windows(init_params(CONFIG), CONFIG, windows, HOURLY, 6, PromptEncoder(8, 0))

    def test_empty(self):
        with pytest.raises(ConfigError):
            forecast_windows(init_params(CONFIG), CONFIG, [], HOURLY, 4, PromptEncoder(8, 0))


class TestAblationVariants:
    def test_four_toggle_rows(self, monkeypatch):
        seen = []

        def spy(train_windows, val_windows, freq, rows):
            seen.extend((mconfig, tconfig.seed, type(make()).__name__)
                        for mconfig, tconfig, make in rows)
            return [SimpleNamespace(best_val_mse=0.0, best_val_mae=0.0) for _ in rows]

        monkeypatch.setattr(evaluation, "train_variants", spy)
        report = ablation_run([], [], HOURLY, CONFIG, TrainConfig(), seeds=(0, 1))
        assert tuple(report["rows"]) == ABLATION_ROWS
        # w/o Context keeps every parameter and zeroes the text; w/o Fusion drops the
        # gate; w/o MoE collapses to one ungated expert
        rows = [(CONFIG, "PromptEncoder"), (CONFIG, "ZeroTextSource"),
                (replace(CONFIG, fused=False), "PromptEncoder"),
                (replace(CONFIG, experts=1, gated=False), "PromptEncoder")]
        assert seen == [(replace(config, seed=seed), seed, source)
                        for config, source in rows for seed in (0, 1)]


def tiny_windows():
    frame = generate(SynthSpec(kind="sine", length=60))
    return list(sample_windows(frame, (0, 60), context_len=8, horizon=4, stride=4))


class TestHarnesses:
    CONFIG = ModelConfig(segment_len=4, dim=8, experts=2, layers=0, heads=1, seed=0)
    TCONFIG = TrainConfig(lr=1e-2, lam=0.01, epochs=2, batch=8)

    def test_ablation_run_structure(self):
        windows = tiny_windows()
        report = ablation_run(windows[:8], windows[8:], HOURLY, self.CONFIG,
                              self.TCONFIG, seeds=(0,))
        assert set(report) == {"rows"}  # the command stamps the config and the seeds
        assert tuple(report["rows"]) == ABLATION_ROWS
        for entry in report["rows"].values():
            assert set(entry) == {
                "per_seed_mse", "per_seed_mae", "mean_mse", "std_mse", "mean_mae", "std_mae",
            }
            assert len(entry["per_seed_mse"]) == 1
            assert entry["mean_mse"] == pytest.approx(entry["per_seed_mse"][0])
        text = render_ablation_table(report)
        for name in ABLATION_ROWS:
            assert name in text

    def test_promotion_run_structure(self):
        windows = tiny_windows()
        report = promotion_run(windows[:8], windows[8:], HOURLY, self.CONFIG,
                               self.TCONFIG, sizes=(8,))
        assert set(report) == {"rows"}  # the command stamps the config and the sizes
        (row,) = report["rows"]
        assert row["size"] == 8
        assert set(row["original"]) == {"mse", "mae"}
        assert row["promotion_mse"] == format_promotion(
            row["original"]["mse"], row["moe"]["mse"]
        )
        text = render_promotion_table(report)
        assert "promotion" in text

    def test_train_variants_match_direct_training(self, monkeypatch):
        windows = tiny_windows()
        train_w, val_w = windows[:8], windows[8:]
        builtin, zero = partial(PromptEncoder, 8, 0), partial(ZeroTextSource, 8)  # makers
        rows = [
            (self.CONFIG, self.TCONFIG, builtin),
            (replace(self.CONFIG, fused=False, seed=1), replace(self.TCONFIG, seed=1), builtin),
            (self.CONFIG, self.TCONFIG, zero),
            (replace(self.CONFIG, segment_len=2), self.TCONFIG, builtin),
        ]
        calls = []

        def spy(windows, freq, segment_len, text_source):
            calls.append((segment_len, type(text_source).__name__))
            return assemble_windows(windows, freq, segment_len, text_source)

        monkeypatch.setattr(evaluation, "assemble_windows", spy)
        results = train_variants(train_w, val_w, HOURLY, rows)
        # train and val once per distinct (segment_len, maker object)
        assert Counter(calls) == {(4, "PromptEncoder"): 2, (4, "ZeroTextSource"): 2,
                                  (2, "PromptEncoder"): 2}
        assert len(results) == len(rows)
        for (mconfig, tconfig, make), result in zip(rows, results):
            # each command's own assemble-then-train code, kept as the reference
            source = make()
            direct = train_model(init_params(mconfig), mconfig, tconfig,
                                 assemble_windows(train_w, HOURLY, mconfig.segment_len, source),
                                 assemble_windows(val_w, HOURLY, mconfig.segment_len, source))
            assert result.best_val_mse == direct.best_val_mse
            assert result.best_val_mae == direct.best_val_mae
            assert result.params.keys() == direct.params.keys()
            for name, value in direct.params.items():
                assert result.params[name].tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("harness,kwargs,sources", [
        (ablation_run, {"seeds": (0, 1)}, {"PromptEncoder": 2, "ZeroTextSource": 2}),
        (promotion_run, {"sizes": (8, 16)}, {"PromptEncoder": 4}),
    ], ids=["ablation", "promotion"])
    def test_harness_assembles_once_per_source(self, monkeypatch, harness, kwargs, sources):
        calls = []

        def spy(windows, freq, segment_len, text_source):
            calls.append(type(text_source).__name__)
            return assemble_windows(windows, freq, segment_len, text_source)

        monkeypatch.setattr(evaluation, "assemble_windows", spy)
        windows = tiny_windows()
        harness(windows[:8], windows[8:], HOURLY, self.CONFIG, self.TCONFIG, **kwargs)
        assert Counter(calls) == sources

    @pytest.mark.parametrize("harness,kwargs", [
        (ablation_run, {"seeds": (0, 1)}),
        (promotion_run, {"sizes": (8, 16)}),
    ], ids=["ablation", "promotion"])
    def test_no_text_memo_is_alive_while_training(self, memos_at_first_train, harness, kwargs):
        windows = tiny_windows()
        harness(windows[:8], windows[8:], HOURLY, self.CONFIG, self.TCONFIG, **kwargs)
        made = memos_at_first_train["made"]
        assert made["encoders"] > 0 and made["tokens"] > 0
        assert memos_at_first_train["alive"] == {"encoders": 0, "tokens": 0}
        assert memos_at_first_train["arrays"] == [{"values", "text", "rows"}] * 2

    def test_promotion_needs_sizes(self):
        with pytest.raises(ConfigError):
            promotion_run([], [], HOURLY, self.CONFIG, self.TCONFIG, sizes=())

    def test_ablation_needs_seeds(self, monkeypatch):
        monkeypatch.setattr(evaluation, "assemble_windows", None)  # refused before assembly
        with pytest.raises(ConfigError, match="seed"):
            ablation_run([], [], HOURLY, self.CONFIG, self.TCONFIG, seeds=())


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["name", "x"], [["alpha", 1], ["b", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4
