"""Segment partitioning and prompt rendering.

Prompt bytes key the embedding cache, so most assertions here are exact
string comparisons against hand-computed statistics.
"""

import numpy as np
import pytest
from datetime import datetime, timedelta
from hypothesis import given, strategies as st

from fusecast.descriptors import Segment, _instant, _stats, render_prompt, segment_series
from fusecast.errors import ConfigError

HOURLY = timedelta(hours=1)
T0 = datetime(2020, 1, 1)


class TestSegmentation:
    def test_counts_and_trailing_drop(self):
        segs = segment_series(np.arange(10.0), T0, segment_len=3, freq=HOURLY)
        assert len(segs) == 3  # 10 // 3, one value dropped
        np.testing.assert_array_equal(segs[0].values, [0, 1, 2])
        np.testing.assert_array_equal(segs[2].values, [6, 7, 8])

    def test_exact_fit(self):
        segs = segment_series(np.arange(12.0), T0, 4, HOURLY)
        assert len(segs) == 3
        np.testing.assert_array_equal(np.concatenate([s.values for s in segs]), np.arange(12.0))

    def test_time_ranges(self):
        segs = segment_series(np.arange(6.0), T0, 3, HOURLY)
        assert segs[0].start == T0
        assert segs[0].end == T0 + 2 * HOURLY  # last covered step, not one past
        assert segs[1].start == T0 + 3 * HOURLY

    def test_segment_longer_than_series(self):
        with pytest.raises(ConfigError, match="segment length 4 > series length 3"):
            segment_series(np.arange(3.0), T0, 4, HOURLY)

    @given(n=st.integers(1, 60), s=st.integers(1, 20))
    def test_partition_property(self, n, s):
        if s > n:
            return
        segs = segment_series(np.arange(float(n)), T0, s, HOURLY)
        assert len(segs) == n // s
        for seg in segs:
            assert seg.values.shape == (s,)
        flat = np.concatenate([seg.values for seg in segs])
        np.testing.assert_array_equal(flat, np.arange(float(len(segs) * s)))


class TestStats:
    def test_hand_computed(self):
        mean, std, change = _stats(np.array([1.0, 2.0, 4.0, 8.0]))
        assert mean == 3.75
        assert std == pytest.approx(2.680951323690902, abs=1e-15)  # population, not sample
        assert change == 7.0

    def test_change_is_net_not_absolute(self):
        assert _stats(np.array([5.0, 9.0, 2.0]))[2] == -3.0

    @given(shift=st.floats(-50, 50), seed=st.integers(0, 999))
    def test_translation_covariance(self, shift, seed):
        """Shifting every value moves the mean only; spread and change hold."""
        v = np.random.default_rng(seed).normal(size=9)
        a_mean, a_std, a_change = _stats(v)
        b_mean, b_std, b_change = _stats(v + shift)
        assert b_mean == pytest.approx(a_mean + shift, abs=1e-12)
        assert b_std == pytest.approx(a_std, abs=1e-12)
        assert b_change == pytest.approx(a_change, abs=1e-12)

    @given(n=st.integers(1, 300), exponent=st.floats(-6, 6), offset=st.sampled_from(
        [0.0, 1.0, -1e3, 1e6, -1e9]), step=st.sampled_from([1, 2, 3, -1]),
        seed=st.integers(0, 2**32 - 1))
    def test_matches_ndarray_mean_and_std_bitwise(self, n, exponent, offset, step, seed):
        """Prompt bytes hang on these floats, so they must be ndarray.mean/.std's own bits."""
        base = np.random.default_rng(seed).normal(offset, 10.0**exponent, 3 * n)
        v = base[::step][:n]  # contiguous, strided and reversed views
        mean, std, _ = _stats(v)
        assert mean == float(v.mean()) and std == float(v.std())


class TestRendering:
    def test_instant_format(self):
        assert _instant(datetime(2023, 1, 3, 8, 0)) == "03-Jan-2023 08:00"
        assert _instant(datetime(2020, 1, 4, 23, 0)) == "04-Jan-2020 23:00"
        assert _instant(datetime(2016, 12, 31, 5, 30)) == "31-Dec-2016 05:30"

    def test_timestamp_phrase(self):
        seg = Segment(np.zeros(3), datetime(2020, 3, 7, 8), datetime(2020, 3, 7, 10))
        assert render_prompt(seg).startswith(
            "The time range of this sequence is from 07-Mar-2020 08:00 to 07-Mar-2020 10:00 "
        )

    def test_stat_phrase(self):
        seg = Segment(np.array([1.0, 2.0, 4.0, 8.0]), T0, T0 + 3 * HOURLY)
        assert render_prompt(seg).endswith(
            " Mean is 3.7500, standard deviation is 2.6810, change is 7.0000."
        )

    def test_full_prompt_single_space_join(self):
        seg = segment_series(np.array([1.0, 2.0, 4.0, 8.0]), datetime(2020, 1, 4, 20), 4, HOURLY)[0]
        prompt = render_prompt(seg)
        assert prompt == (
            "The time range of this sequence is from 04-Jan-2020 20:00 to 04-Jan-2020 23:00 "
            "Mean is 3.7500, standard deviation is 2.6810, change is 7.0000."
        )

    def test_negative_values_render_with_sign(self):
        seg = Segment(np.array([-1.5, -0.5]), T0, T0 + HOURLY)
        text = render_prompt(seg)
        assert "Mean is -1.0000" in text
        assert "change is 1.0000." in text

    def test_prompt_is_deterministic(self):
        seg = segment_series(np.linspace(-3, 11, 24), T0, 24, HOURLY)[0]
        assert render_prompt(seg) == render_prompt(seg)
