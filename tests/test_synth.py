"""Generator oracles: every synthetic kind is spot-checked by hand."""

import numpy as np
import pytest
from datetime import datetime, timedelta

from fusecast.data import load_csv
from fusecast.errors import ConfigError
from fusecast.synth import (
    EPOCH,
    FREQ,
    SynthSpec,
    _is_regime_a,
    generate,
    save_csv,
    spec_comment,
)


class TestSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="sawtooth", length=10),
            dict(kind="sine", length=1),
            dict(kind="sine", length=10, channels=0),
            dict(kind="sine", length=10, period=0),
            dict(kind="sine", length=10, noise=-0.5),
            dict(kind="sine", length=10, noise=float("nan")),
            dict(kind="sine", length=10, noise=float("inf")),
            dict(kind="sine", length=10, amplitude=float("inf")),
            dict(kind="sine", length=10, amplitude=float("nan")),
            dict(kind="sine", length=10, level=float("-inf")),
            dict(kind="linear", length=10, slope=float("nan")),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            SynthSpec(**kwargs)

    def test_comment_echoes_fields(self):
        comment = spec_comment(SynthSpec(kind="sine", length=100))
        assert comment == (
            "kind=sine length=100 channels=1 noise=0.0 seed=0"
            " period=24 amplitude=1.0 level=0.0 slope=0.01"
        )


class TestFrameLayout:
    def test_hourly_from_epoch(self):
        frame = generate(SynthSpec(kind="constant", length=5))
        assert frame.timestamps[0] == EPOCH == datetime(2020, 1, 1)
        assert frame.freq == FREQ == timedelta(hours=1)
        assert frame.timestamps[3] - frame.timestamps[2] == FREQ

    def test_channel_names(self):
        assert generate(SynthSpec(kind="sine", length=4)).names == ("OT",)
        frame = generate(SynthSpec(kind="sine", length=4, channels=3))
        assert frame.names == ("v1", "v2", "v3")
        assert frame.values.shape == (4, 3)

    def test_float64(self):
        frame = generate(SynthSpec(kind="linear", length=4))
        assert frame.values.dtype == np.float64


class TestSimpleKinds:
    def test_constant(self):
        frame = generate(SynthSpec(kind="constant", length=6, level=1.5, amplitude=0.25))
        np.testing.assert_array_equal(frame.values[:, 0], np.full(6, 1.75))

    def test_linear(self):
        frame = generate(SynthSpec(kind="linear", length=5, level=2.0, slope=0.5))
        np.testing.assert_array_equal(frame.values[:, 0], [2.0, 2.5, 3.0, 3.5, 4.0])

    def test_sine_quarter_points(self):
        frame = generate(SynthSpec(kind="sine", length=30, period=24, amplitude=3.0))
        v = frame.values[:, 0]
        assert v[0] == pytest.approx(0.0, abs=1e-12)
        assert v[6] == pytest.approx(3.0, abs=1e-12)
        assert v[12] == pytest.approx(0.0, abs=1e-12)
        assert v[18] == pytest.approx(-3.0, abs=1e-12)
        assert v[24] == pytest.approx(v[0], abs=1e-12)

    def test_sine_second_channel_is_antiphase(self):
        frame = generate(SynthSpec(kind="sine", length=48, channels=2))
        np.testing.assert_allclose(frame.values[:, 1], -frame.values[:, 0], atol=1e-12)


class TestTwoRegime:
    def value_at(self, frame, day, hour):
        return float(frame.values[(day - 1) * 24 + hour, 0])

    def test_spot_values(self):
        frame = generate(SynthSpec(kind="two-regime", length=31 * 24))
        # regime A sine around +2, amplitude grid, opening offsets
        assert self.value_at(frame, 1, 0) == pytest.approx(2.0, abs=1e-12)
        assert self.value_at(frame, 1, 6) == pytest.approx(2.35, abs=1e-12)
        assert self.value_at(frame, 2, 0) == pytest.approx(2.02, abs=1e-12)
        # regime B ramp around -2
        assert self.value_at(frame, 8, 0) == pytest.approx(-3.6, abs=1e-12)
        assert self.value_at(frame, 10, 12) == pytest.approx(-2.0, abs=1e-12)

    def test_weekly_block_schedule(self):
        for day, expect_a in [(1, True), (7, True), (8, False), (14, False),
                              (15, True), (21, True), (22, False), (28, False),
                              (29, True), (31, True)]:
            assert _is_regime_a(datetime(2020, 1, day)) is expect_a

    def test_regimes_are_level_separated(self):
        frame = generate(SynthSpec(kind="two-regime", length=31 * 24))
        in_a = np.array([_is_regime_a(ts) for ts in frame.timestamps])
        assert frame.values[in_a, 0].mean() == pytest.approx(2.0, abs=0.1)
        assert frame.values[~in_a, 0].mean() == pytest.approx(-2.0, abs=0.1)

    def test_monthly_recurrence(self):
        """Values depend only on (day of month, hour), so months repeat."""
        frame = generate(SynthSpec(kind="two-regime", length=1600))
        jan = frame.values[4 * 24 + 10, 0]  # 05 Jan 10:00
        feb = frame.values[(31 + 4) * 24 + 10, 0]  # 05 Feb 10:00
        assert jan == feb
        jan_day8 = frame.values[7 * 24 : 8 * 24, 0]
        feb_day8 = frame.values[(31 + 7) * 24 : (31 + 8) * 24, 0]
        np.testing.assert_array_equal(jan_day8, feb_day8)


class TestDeterminism:
    def test_identical_specs_identical_frames(self):
        spec = SynthSpec(kind="two-regime", length=200, noise=0.05, seed=9)
        a, b = generate(spec), generate(spec)
        np.testing.assert_array_equal(a.values, b.values)

    def test_noise_is_seeded(self):
        base = dict(kind="sine", length=100, noise=0.1)
        a = generate(SynthSpec(seed=0, **base))
        b = generate(SynthSpec(seed=1, **base))
        assert not np.array_equal(a.values, b.values)

    def test_zero_noise_ignores_seed(self):
        a = generate(SynthSpec(kind="sine", length=100, seed=0))
        b = generate(SynthSpec(kind="sine", length=100, seed=1))
        np.testing.assert_array_equal(a.values, b.values)

    def test_noise_perturbs_base(self):
        clean = generate(SynthSpec(kind="sine", length=100))
        noisy = generate(SynthSpec(kind="sine", length=100, noise=0.01))
        spread = np.abs(noisy.values - clean.values)
        assert 0 < spread.max() < 0.1


class TestCsvRoundtrip:
    def test_bitwise_roundtrip(self, tmp_path):
        spec = SynthSpec(kind="two-regime", length=100, channels=2, noise=0.03, seed=4)
        frame = generate(spec)
        path = tmp_path / "synth.csv"
        save_csv(frame, path, comment=spec_comment(spec))
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.values, frame.values)
        assert loaded.timestamps == frame.timestamps
        assert loaded.names == frame.names
        assert loaded.freq == frame.freq

    def test_layout(self, tmp_path):
        frame = generate(SynthSpec(kind="constant", length=2, level=1.0, amplitude=0.0))
        path = tmp_path / "flat.csv"
        save_csv(frame, path, comment="kind=constant")
        lines = path.read_text().splitlines()
        assert lines[0] == "# kind=constant"
        assert lines[1] == "date,OT"
        assert lines[2] == "2020-01-01 00:00:00,1.0"
        assert lines[3] == "2020-01-01 01:00:00,1.0"
