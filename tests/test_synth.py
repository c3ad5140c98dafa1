"""Synthetic baseline generation and surge injection."""

import numpy as np
import pytest

from bgpnovelty.series import MAX_SERIES_MINUTES, MINUTE
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
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(BadParams):
            gen_baseline(**kwargs)

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

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(start_minute_s=0, duration_minutes=0, shape="step", magnitude=2.0),
            dict(start_minute_s=0, duration_minutes=5, shape="step", magnitude=0.0),
            dict(start_minute_s=0, duration_minutes=5, shape="sawtooth", magnitude=2.0),
            dict(start_minute_s=0, duration_minutes=5, shape="step", magnitude=2.0, channels="all"),
            dict(start_minute_s=30, duration_minutes=5, shape="step", magnitude=2.0),
        ],
    )
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(BadParams):
            SurgeSpec(**kwargs)
