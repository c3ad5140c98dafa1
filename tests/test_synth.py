"""Synthetic baseline generation and surge injection."""

import re

import numpy as np
import pytest

from bgpnovelty.series import MAX_SERIES_MINUTES, MINUTE, CountOverflow, MinuteSeries
from bgpnovelty.synth import (
    BadParams,
    OutOfRange,
    SurgeSpec,
    gen_baseline,
    inject_surge,
    surge_multipliers,
)


class TestGenBaseline:
    def test_same_seed_gives_identical_series(self):
        a = gen_baseline(500, 100.0, 30.0, 0.25, seed=5)
        b = gen_baseline(500, 100.0, 30.0, 0.25, seed=5)
        assert np.array_equal(a.announcements, b.announcements)
        assert np.array_equal(a.withdrawals, b.withdrawals)

    def test_different_seeds_differ(self):
        a = gen_baseline(500, 100.0, 30.0, 0.25, seed=5)
        b = gen_baseline(500, 100.0, 30.0, 0.25, seed=6)
        assert not np.array_equal(a.announcements, b.announcements)

    def test_sample_mean_tracks_configured_rate(self):
        series = gen_baseline(10_000, 1000.0, 200.0, 0.0, seed=7)
        assert abs(series.announcements.mean() - 1000.0) / 1000.0 < 0.05
        assert abs(series.withdrawals.mean() - 200.0) / 200.0 < 0.05

    def test_hourly_means_trace_the_diurnal_profile(self):
        mean = 1000.0
        amp = 0.5
        series = gen_baseline(10_080, mean, 300.0, amp, seed=8)
        starts = series.start_minute_s + MINUTE * np.arange(len(series))
        minute_of_day = (starts % 86_400) / MINUTE
        rate = mean * (1.0 + amp * np.sin(2.0 * np.pi * minute_of_day / 1440.0))
        for hour in range(24):
            mask = (minute_of_day >= 60 * hour) & (minute_of_day < 60 * (hour + 1))
            observed = series.announcements[mask].mean()
            expected = rate[mask].mean()
            tolerance = 4.0 * np.sqrt(expected / mask.sum())
            assert abs(observed - expected) < tolerance

    def test_output_is_gapless_and_non_negative(self):
        series = gen_baseline(777, 50.0, 10.0, 0.9, seed=9)
        assert len(series) == 777
        assert series.announcements.min() >= 0
        assert series.withdrawals.min() >= 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(minutes=0, mean_a=1.0, mean_w=1.0, diurnal_amp=0.0, seed=0),
            dict(minutes=10, mean_a=0.0, mean_w=1.0, diurnal_amp=0.0, seed=0),
            dict(minutes=10, mean_a=1.0, mean_w=1.0, diurnal_amp=1.0, seed=0),
            dict(minutes=10, mean_a=1.0, mean_w=1.0, diurnal_amp=-0.1, seed=0),
            dict(minutes=10, mean_a=1.0, mean_w=1.0, diurnal_amp=0.0, seed=0, start_minute_s=30),
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(BadParams):
            gen_baseline(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(mean_a=float("nan")), "--mean-a must be finite and > 0, got nan"),
            (dict(mean_w=float("inf")), "--mean-w must be finite and > 0, got inf"),
            (dict(mean_a=1e300), "--mean-a 1e+300 peaks at a rate of 1e+300 a minute"),
            (dict(mean_w=7e18, diurnal_amp=0.5), "--mean-w 7e+18 peaks at a rate of 1.05e+19 a minute"),
        ],
        ids=["nan", "inf", "1e300", "diurnal-peak"],
    )
    def test_rejects_a_mean_numpy_cannot_draw_naming_flag_and_value(self, kwargs, message):
        params = dict(minutes=1440, mean_a=10.0, mean_w=10.0, diurnal_amp=0.0, seed=0) | kwargs
        with pytest.raises(BadParams, match=re.escape(message)):
            gen_baseline(**params)

    def test_peak_rate_is_that_of_the_drawn_minutes(self):
        # At midnight the sine is 0, so the first minutes stay below the largest Poisson rate.
        series = gen_baseline(3, 10.0, 7e18, 0.5, seed=0)
        assert series.withdrawals.min() > 6.9e18

    def test_rejects_more_minutes_than_a_series_holds(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("counts drawn before the check")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(BadParams, match=f"series limit, got {MAX_SERIES_MINUTES + 1}"):
            gen_baseline(MAX_SERIES_MINUTES + 1, 1.0, 1.0, 0.0, seed=0)


class TestInjectSurge:
    def base(self):
        return gen_baseline(300, 200.0, 100.0, 0.0, seed=10)

    def test_step_magnitude_one_changes_nothing(self):
        series = self.base()
        surged = inject_surge(series, SurgeSpec(series.minute_at(50), 30, "step", 1.0))
        assert np.array_equal(series.announcements, surged.announcements)
        assert np.array_equal(series.withdrawals, surged.withdrawals)

    def test_spike_touches_only_the_onset_minute(self):
        series = self.base()
        onset = series.minute_at(100)
        surged = inject_surge(series, SurgeSpec(onset, 40, "spike", 10.0))
        changed = np.flatnonzero(series.announcements != surged.announcements)
        assert list(changed) == [100]
        assert surged.announcements[100] == 10 * series.announcements[100]

    def test_ramp_endpoints_and_midpoint(self):
        multipliers = surge_multipliers(SurgeSpec(0, 120, "ramp", 10.0))
        assert multipliers[0] == 1.0
        assert multipliers[-1] == 10.0
        # linear interpolation puts the 60-minutes-in multiplier near 5.5
        assert multipliers[60] == pytest.approx(1.0 + 9.0 * 60 / 119, rel=1e-12)
        assert abs(multipliers[60] - 5.5) < 0.1

    def test_one_minute_ramp_is_its_magnitude(self):
        assert surge_multipliers(SurgeSpec(0, 1, "ramp", 7.5)).tolist() == [7.5]

    def test_ramp_applies_rounded_multiplier(self):
        series = self.base()
        onset = series.minute_at(60)
        surged = inject_surge(series, SurgeSpec(onset, 120, "ramp", 10.0))
        multipliers = surge_multipliers(SurgeSpec(onset, 120, "ramp", 10.0))
        i = 60 + 60  # midpoint of the window
        assert surged.announcements[i] == round(series.announcements[i] * multipliers[60])

    def test_channels_selector(self):
        series = self.base()
        onset = series.minute_at(10)
        surged = inject_surge(series, SurgeSpec(onset, 5, "step", 3.0, "withdrawals"))
        assert np.array_equal(series.announcements, surged.announcements)
        assert surged.withdrawals[10] == 3 * series.withdrawals[10]

    def test_structure_is_preserved(self):
        series = self.base()
        surged = inject_surge(series, SurgeSpec(series.minute_at(0), 300, "ramp", 4.0))
        assert len(surged) == len(series)
        assert surged.start_minute_s == series.start_minute_s
        assert surged.announcements.min() >= 0

    def test_step_total_increase_matches_expectation(self):
        mean = 1000.0
        duration = 60
        magnitude = 10.0
        series = gen_baseline(2000, mean, 100.0, 0.0, seed=12)
        onset_index = 500
        spec = SurgeSpec(series.minute_at(onset_index), duration, "step", magnitude)
        surged = inject_surge(series, spec)
        added = int(surged.announcements.sum() - series.announcements.sum())
        expected = (magnitude - 1.0) * mean * duration
        tolerance = 3.0 * (magnitude - 1.0) * np.sqrt(mean * duration)
        assert abs(added - expected) < tolerance

    def test_window_must_lie_within_series(self):
        series = self.base()
        with pytest.raises(OutOfRange):
            inject_surge(series, SurgeSpec(series.minute_at(290), 20, "step", 2.0))
        with pytest.raises(OutOfRange):
            inject_surge(series, SurgeSpec(series.start_minute_s - MINUTE, 5, "step", 2.0))

    def test_empty_series_raises(self):
        with pytest.raises(OutOfRange, match="cannot inject a surge into an empty series"):
            inject_surge(MinuteSeries(0, [], []), SurgeSpec(0, 1, "step", 2.0))

    @pytest.mark.parametrize("channels", ["announcements", "withdrawals"])
    def test_scaled_count_past_int64_raises_naming_the_minute(self, channels):
        # 2**62 doubled is 2**63, one past the int64 maximum; just under double still fits
        counts = np.array([1, 2**62, 2**62, 1], dtype=np.int64)
        series = MinuteSeries(0, counts, counts)
        fits = inject_surge(series, SurgeSpec(MINUTE, 2, "step", 1.999, channels))
        assert getattr(fits, channels)[1] == round(2**62 * 1.999)
        with pytest.raises(CountOverflow, match=f"^surge scales the {channels} of minute 1970-01-01T00:01:00Z past int64$"):
            inject_surge(series, SurgeSpec(MINUTE, 2, "step", 2.0, channels))
        with pytest.raises(CountOverflow, match="minute 1970-01-01T00:02:00Z"):
            inject_surge(series, SurgeSpec(2 * MINUTE, 2, "step", 1e300, channels))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(start_minute_s=0, duration_minutes=0, shape="step", magnitude=2.0),
            dict(start_minute_s=0, duration_minutes=5, shape="step", magnitude=0.0),
            dict(start_minute_s=0, duration_minutes=5, shape="sawtooth", magnitude=2.0),
            dict(start_minute_s=0, duration_minutes=5, shape="step", magnitude=2.0, channels="all"),
            dict(start_minute_s=30, duration_minutes=5, shape="step", magnitude=2.0),
            dict(start_minute_s=0, duration_minutes=5, shape="step", magnitude=float("nan")),
            dict(start_minute_s=0, duration_minutes=5, shape="step", magnitude=float("inf")),
        ],
    )
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(BadParams):
            SurgeSpec(**kwargs)
