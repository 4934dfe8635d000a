"""Metrics, baselines, rolling forecasts, and the comparison harnesses."""

import numpy as np
import pytest
from datetime import datetime, timedelta
from hypothesis import given, strategies as st

from fusecast.data import sample_windows
from fusecast.errors import ConfigError, InvalidHorizon, ShapeError
from fusecast.evaluation import (
    ABLATION_ROWS,
    HORIZONS,
    LinearBaseline,
    ablation_run,
    ablation_variants,
    forecast_report,
    forecast_windows,
    format_promotion,
    metrics,
    persistence_baseline,
    promotion_percent,
    promotion_run,
    render_ablation_table,
    render_forecast_table,
    render_promotion_table,
    render_table,
    rolling_forecast,
    sweep_run,
)
from fusecast.model import ModelConfig, forward, init_params
from fusecast.textenc import PromptEncoder
from fusecast.train import TrainConfig, window_tensors
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
        with pytest.raises(ShapeError):
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
        with pytest.raises(InvalidHorizon):
            persistence_baseline([1.0], horizon)

    def test_empty_context(self):
        with pytest.raises(ShapeError):
            persistence_baseline([], 3)


class TestLinearBaseline:
    def test_recovers_exact_linear_map(self):
        rng = np.random.default_rng(0)
        contexts = rng.normal(size=(40, 6))
        w = rng.normal(size=(6, 3))
        futures = contexts @ w + 0.7
        model = LinearBaseline().fit(contexts, futures)
        pred = model.predict(contexts[5])
        np.testing.assert_allclose(pred, futures[5], atol=1e-8)

    def test_unfitted(self):
        with pytest.raises(ConfigError):
            LinearBaseline().predict(np.zeros(4))

    def test_context_length_must_match_fit(self):
        model = LinearBaseline().fit(np.zeros((5, 4)), np.zeros((5, 2)))
        with pytest.raises(ShapeError):
            model.predict(np.zeros(3))

    def test_fit_validation(self):
        with pytest.raises(ShapeError):
            LinearBaseline().fit(np.zeros((5, 4)), np.zeros((6, 2)))


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
        x, te, _ = window_tensors(context, T0, HOURLY, 4, self.ENC)
        direct = forward(params, CONFIG, x[None], te[None]).pred[0, -1]
        for horizon in (1, 2, 4):
            got = rolling_forecast(params, CONFIG, context, T0, HOURLY, horizon, self.ENC)
            np.testing.assert_array_equal(got, direct[:horizon])

    def test_front_trim_equivalence(self):
        """Dropping the values the model cannot see anyway changes nothing."""
        full = make_context(10)  # 10 values, segment_len 4: front 2 unused
        a = self.forecast(9, context=full)
        params = init_params(CONFIG)
        b = rolling_forecast(params, CONFIG, full[2:], T0 + 2 * HOURLY, HOURLY, 9, self.ENC)
        np.testing.assert_array_equal(a, b)

    def test_bad_horizon(self):
        with pytest.raises(InvalidHorizon):
            self.forecast(0)

    def test_short_context(self):
        with pytest.raises(ConfigError):
            self.forecast(4, context=np.zeros(3))


class TestForecastWindows:
    def test_averages_per_window_metrics(self):
        frame = generate(SynthSpec(kind="sine", length=60))
        windows = list(sample_windows(frame, (0, 60), context_len=8, horizon=6, stride=10))
        params = init_params(CONFIG)
        enc = PromptEncoder(8, 0)
        mse, mae = forecast_windows(params, CONFIG, windows, HOURLY, 6, enc)
        per_sq, per_abs = [], []
        for w in windows:
            pred = rolling_forecast(params, CONFIG, w.context, w.start, HOURLY, 6, enc)
            diff = pred - w.target[:6]
            per_sq.append((diff**2).mean())
            per_abs.append(np.abs(diff).mean())
        assert mse == pytest.approx(np.mean(per_sq), abs=1e-15)
        assert mae == pytest.approx(np.mean(per_abs), abs=1e-15)

    def test_horizon_beyond_target(self):
        frame = generate(SynthSpec(kind="sine", length=60))
        windows = list(sample_windows(frame, (0, 60), context_len=8, horizon=4, stride=10))
        with pytest.raises(ShapeError):
            forecast_windows(init_params(CONFIG), CONFIG, windows, HOURLY, 6, PromptEncoder(8, 0))

    def test_empty(self):
        with pytest.raises(ConfigError):
            forecast_windows(init_params(CONFIG), CONFIG, [], HOURLY, 4, PromptEncoder(8, 0))


class TestForecastReport:
    def test_sorted_horizons_and_averages(self):
        per = {
            192: {"mse": 0.4, "mae": 0.5},
            96: {"mse": 0.2, "mae": 0.3},
        }
        report = forecast_report("sine", per, config={}, seeds=(0,))
        assert list(report["horizons"]) == [96, 192]
        assert report["avg_mse"] == pytest.approx(0.3)
        assert report["avg_mae"] == pytest.approx(0.4)
        assert report["seeds"] == [0]
        text = render_forecast_table(report)
        assert "avg" in text and "0.3000" in text

    def test_empty(self):
        with pytest.raises(ConfigError):
            forecast_report("sine", {}, config={}, seeds=(0,))


class TestAblationVariants:
    def test_four_toggle_rows(self):
        variants = ablation_variants(CONFIG)
        assert tuple(variants) == ABLATION_ROWS
        original, text = variants["Original"]
        assert original == CONFIG and text == "builtin"
        assert variants["w/o Context"] == (CONFIG, "zero")
        no_fusion, _ = variants["w/o Fusion"]
        assert no_fusion.fused is False and no_fusion.experts == CONFIG.experts
        no_moe, _ = variants["w/o MoE"]
        assert no_moe.experts == 1 and no_moe.gated is False and no_moe.fused is True


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
        (row,) = report["rows"]
        assert row["size"] == 8
        assert set(row["original"]) == {"mse", "mae"}
        assert row["promotion_mse"] == format_promotion(
            row["original"]["mse"], row["moe"]["mse"]
        )
        text = render_promotion_table(report)
        assert "promotion" in text

    def test_promotion_needs_sizes(self):
        with pytest.raises(ConfigError):
            promotion_run([], [], HOURLY, self.CONFIG, self.TCONFIG, sizes=())


class TestSweep:
    def test_best_by_mse(self):
        table = {0.01: (0.5, 0.4), 0.1: (0.2, 0.3), 0.5: (0.9, 0.7)}
        report = sweep_run((0.01, 0.1, 0.5), lambda v: table[v])
        assert report["best_value"] == 0.1
        assert report["best_mse"] == 0.2
        assert [row["value"] for row in report["curve"]] == [0.01, 0.1, 0.5]

    def test_empty(self):
        with pytest.raises(ConfigError):
            sweep_run((), lambda v: (0, 0))


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["name", "x"], [["alpha", 1], ["b", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4
