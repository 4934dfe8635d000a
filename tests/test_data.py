"""CSV loading, chronological splits, normalization, and windowing."""

import numpy as np
import pytest
from datetime import datetime, timedelta
from hypothesis import given, strategies as st

from fusecast.data import (
    NormStats,
    SplitSpec,
    TimeSeriesFrame,
    compute_norm_stats,
    denormalize,
    extend_back,
    load_csv,
    make_splits,
    normalize,
    sample_windows,
    window_count,
)
from fusecast.errors import ConfigError, DegenerateChannel, ParseError, SplitTooShort

HOURLY = timedelta(hours=1)


def make_frame(length, channels=1, start=datetime(2020, 1, 1)):
    t = np.arange(length, dtype=np.float64)
    values = np.stack([t + 100.0 * c for c in range(channels)], axis=1)
    stamps = tuple(start + i * HOURLY for i in range(length))
    names = tuple(f"v{c}" for c in range(channels))
    return TimeSeriesFrame(stamps, values, names, HOURLY)


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_basic_two_channel(self, tmp_path):
        path = write(
            tmp_path,
            "date,HUFL,OT\n"
            "2016-07-01 00:00:00,5.827,30.531\n"
            "2016-07-01 01:00:00,5.693,27.787\n"
            "2016-07-01 02:00:00,5.157,27.787\n",
        )
        frame = load_csv(path)
        assert frame.names == ("HUFL", "OT")
        assert frame.length == 3 and frame.channels == 2
        assert frame.freq == HOURLY
        assert frame.values.dtype == np.float64
        np.testing.assert_array_equal(frame.values[:, 0], [5.827, 5.693, 5.157])
        assert frame.timestamps[0] == datetime(2016, 7, 1, 0, 0)

    def test_comment_lines_skipped(self, tmp_path):
        path = write(
            tmp_path,
            "# generator settings echoed here\n"
            "date,OT\n"
            "2020-01-01 00:00:00,1.0\n"
            "2020-01-01 01:00:00,2.0\n",
        )
        assert load_csv(path).length == 2

    def test_short_date_formats(self, tmp_path):
        path = write(tmp_path, "date,OT\n2020-01-01 00:00,1.0\n2020-01-01 01:00,2.0\n")
        assert load_csv(path).freq == HOURLY
        path = write(tmp_path, "date,OT\n2020-01-01,1.0\n2020-01-02,2.0\n", name="daily.csv")
        assert load_csv(path).freq == timedelta(days=1)

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        path = write(
            tmp_path,
            "date,a,b\n"
            "2020-01-01 00:00:00,1.0,2.0\n"
            "2020-01-01 01:00:00,1.0,oops\n",
        )
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert info.value.row == 2
        assert info.value.column == 2

    def test_nan_cell_rejected(self, tmp_path):
        path = write(
            tmp_path, "date,a\n2020-01-01 00:00:00,nan\n2020-01-01 01:00:00,1.0\n"
        )
        with pytest.raises(ParseError):
            load_csv(path)

    def test_bad_timestamp(self, tmp_path):
        path = write(tmp_path, "date,a\n01/02/2020,1.0\n01/03/2020,2.0\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert info.value.row == 1

    def test_ragged_row(self, tmp_path):
        path = write(
            tmp_path,
            "date,a,b\n2020-01-01 00:00:00,1.0,2.0\n2020-01-01 01:00:00,1.0\n",
        )
        with pytest.raises(ParseError):
            load_csv(path)

    def test_non_uniform_grid(self, tmp_path):
        path = write(
            tmp_path,
            "date,a\n"
            "2020-01-01 00:00:00,1.0\n"
            "2020-01-01 01:00:00,2.0\n"
            "2020-01-01 03:00:00,3.0\n",
        )
        refused = "non-uniform step at row 3: 2:00:00 != 1:00:00$"
        with pytest.raises(ParseError, match=refused) as info:
            load_csv(path)
        assert (info.value.row, info.value.column) == (3, None)

    def test_decreasing_timestamps(self, tmp_path):
        path = write(
            tmp_path,
            "date,a\n2020-01-01 01:00:00,1.0\n2020-01-01 00:00:00,2.0\n",
        )
        with pytest.raises(ParseError, match="timestamps not increasing at row 2$") as info:
            load_csv(path)
        assert (info.value.row, info.value.column) == (2, None)

    def test_too_few_rows(self, tmp_path):
        path = write(tmp_path, "date,a\n2020-01-01 00:00:00,1.0\n")
        with pytest.raises(ParseError, match="need at least 2 data rows, got 1$") as info:
            load_csv(path)
        assert info.value.row is None
        with pytest.raises(ParseError, match="empty.csv: empty file$"):
            load_csv(write(tmp_path, "", name="empty.csv"))

    def test_header_needs_a_channel(self, tmp_path):
        path = write(tmp_path, "date\n2020-01-01 00:00:00\n2020-01-01 01:00:00\n")
        with pytest.raises(ParseError):
            load_csv(path)


class TestSplits:
    def test_from_counts_boundaries(self):
        spec = SplitSpec.from_counts((8545, 2881, 2881), context_len=168)
        assert (spec.train_end, spec.val_end, spec.test_end) == (8545, 11426, 14307)

    def test_ranges_tile_and_counts(self):
        frame = make_frame(400)
        spec = SplitSpec.from_counts((240, 80, 80), context_len=48)
        ranges = make_splits(frame, spec, horizon=24)
        assert ranges.train == (0, 240)
        assert ranges.val == (240, 320)
        assert ranges.test == (320, 400)

    def test_unused_tail_is_allowed(self):
        frame = make_frame(500)
        spec = SplitSpec.from_counts((240, 80, 80), context_len=48)
        assert make_splits(frame, spec, horizon=24).test == (320, 400)

    @pytest.mark.parametrize(
        "counts",
        [(0, 80, 80), (240, 0, 80), (240, 80, 0)],
    )
    def test_empty_split_rejected(self, counts):
        frame = make_frame(400)
        with pytest.raises(SplitTooShort):
            make_splits(frame, SplitSpec.from_counts(counts, 48), horizon=24)

    def test_splits_must_fit_frame(self):
        frame = make_frame(300)
        with pytest.raises(SplitTooShort):
            make_splits(frame, SplitSpec.from_counts((240, 80, 80), 48), horizon=24)

    def test_train_needs_context_plus_horizon(self):
        frame = make_frame(400)
        with pytest.raises(SplitTooShort):
            make_splits(frame, SplitSpec.from_counts((71, 200, 129), 48), horizon=24)

    def test_val_needs_horizon(self):
        frame = make_frame(400)
        with pytest.raises(SplitTooShort):
            make_splits(frame, SplitSpec.from_counts((350, 23, 27), 48), horizon=24)

    def test_extend_back(self):
        assert extend_back((240, 320), 48) == (192, 320)
        assert extend_back((30, 60), 48) == (0, 60)


class TestNormalization:
    def test_population_std(self):
        frame = make_frame(4)
        frame = TimeSeriesFrame(
            frame.timestamps, np.array([[1.0], [2.0], [4.0], [8.0]]), ("a",), HOURLY
        )
        stats = compute_norm_stats(frame, (0, 4))
        assert stats.mean[0] == 3.75
        assert stats.std[0] == pytest.approx(2.680951323690902, abs=1e-15)

    def test_stats_use_train_range_only(self):
        frame = make_frame(100)
        stats = compute_norm_stats(frame, (0, 60))
        assert stats.mean[0] == pytest.approx(np.arange(60).mean())

    def test_constant_channel_rejected(self):
        frame = make_frame(50)
        flat = TimeSeriesFrame(
            frame.timestamps, np.ones((50, 1)), ("flat",), HOURLY
        )
        with pytest.raises(DegenerateChannel):
            compute_norm_stats(flat, (0, 50))

    @pytest.mark.parametrize("values", [
        np.where(np.arange(300) % 2, 1.7e308, 1.5e308),  # the train mean overflows
        1e200 * np.sin(np.arange(300) / 3),  # the mean is finite, the std overflows
    ], ids=["mean", "std"])
    def test_overflowing_statistics_rejected(self, values):
        # every cell is finite, but an inf or NaN statistic would scale the channel to
        # zeros or NaN; the refusal comes as the error, not as a RuntimeWarning first
        frame = make_frame(300)
        huge = TimeSeriesFrame(frame.timestamps, values[:, None], ("huge",), HOURLY)
        with pytest.raises(DegenerateChannel, match="'huge'.*overflows"):
            compute_norm_stats(huge, (0, 180))

    def test_roundtrip(self):
        frame = make_frame(120, channels=3)
        stats = compute_norm_stats(frame, (0, 80))
        normed = normalize(frame, stats)
        assert abs(normed.values[:80].mean()) < 1e-12
        back = denormalize(normed, stats)
        np.testing.assert_allclose(back.values, frame.values, atol=1e-12)

    def test_channel_count_mismatch(self):
        frame = make_frame(50, channels=2)
        stats = NormStats(mean=np.zeros(3), std=np.ones(3))
        with pytest.raises(ConfigError, match="^stats cover 3 channels, frame has 2$"):
            normalize(frame, stats)


class TestWindows:
    @given(
        split_len=st.integers(0, 60),
        context=st.integers(1, 12),
        horizon=st.integers(1, 12),
        stride=st.integers(1, 8),
    )
    def test_count_matches_enumeration(self, split_len, context, horizon, stride):
        brute = len(range(0, split_len - context - horizon + 1, stride))
        assert window_count(split_len, context, horizon, stride) == brute

    def test_order_channel_major_then_time(self):
        frame = make_frame(12, channels=2)
        windows = list(sample_windows(frame, (0, 12), context_len=4, horizon=2, stride=3))
        assert [w.channel for w in windows] == [0, 0, 0, 1, 1, 1]
        starts = [w.start for w in windows[:3]]
        assert starts == sorted(starts)

    def test_window_contents(self):
        frame = make_frame(10)
        w = list(sample_windows(frame, (0, 10), context_len=3, horizon=2))[0]
        np.testing.assert_array_equal(w.context, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(w.target, [3.0, 4.0])
        assert w.start == frame.timestamps[0]

    def test_windows_stay_inside_range(self):
        frame = make_frame(30)
        for w in sample_windows(frame, (10, 24), context_len=4, horizon=3):
            i = frame.timestamps.index(w.start)
            assert 10 <= i and i + 4 + 3 <= 24

    def test_extended_val_range_borrows_history(self):
        frame = make_frame(40)
        val = extend_back((30, 40), 6)
        windows = list(sample_windows(frame, val, context_len=6, horizon=4))
        # first target starts exactly at the val boundary
        assert windows[0].target[0] == 30.0

    def test_too_short_range(self):
        frame = make_frame(10)
        with pytest.raises(SplitTooShort):
            list(sample_windows(frame, (0, 6), context_len=4, horizon=3))

    def test_count_agrees_with_sampler(self):
        frame = make_frame(50, channels=2)
        for stride in (1, 2, 5):
            windows = list(sample_windows(frame, (0, 50), 8, 4, stride=stride))
            assert len(windows) == 2 * window_count(50, 8, 4, stride)
