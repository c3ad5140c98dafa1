"""Normalization and lag-window construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpnovelty.features import (
    EmptySeries,
    NormalizationParams,
    _normalize_array,
    fit_normalization,
    make_windows,
)
from bgpnovelty.series import MinuteSeries
from bgpnovelty.synth import gen_baseline

NOON = 1_000_080_000


def normalize(value, lo, hi):
    return float(_normalize_array(np.array([value]), lo, hi)[0])


def denormalize(value, lo, hi):
    """Inverse of the linear map onto [0, 1], for hi > lo."""
    return lo + value * (hi - lo)


def series_of(announcements, withdrawals):
    return MinuteSeries(NOON, announcements, withdrawals)


class TestFitNormalization:
    def test_channel_min_max(self):
        params = fit_normalization(series_of([0, 10, 5], [3, 1, 2]))
        assert (params.a_min, params.a_max) == (0.0, 10.0)
        assert (params.w_min, params.w_max) == (1.0, 3.0)

    def test_constant_channel_degenerates(self):
        params = fit_normalization(series_of([7, 7, 7], [0, 0, 0]))
        assert params.a_min == params.a_max == 7.0

    def test_week_long_series_matches_independent_scan(self):
        series = gen_baseline(10_080, 800.0, 200.0, 0.3, seed=11)
        params = fit_normalization(series)
        # oracle: plain python min/max over the raw counts
        ann = [int(v) for v in series.announcements]
        wd = [int(v) for v in series.withdrawals]
        assert params == NormalizationParams(min(ann), max(ann), min(wd), max(wd))

    def test_empty_series_raises(self):
        with pytest.raises(EmptySeries):
            fit_normalization(MinuteSeries(NOON, [], []))


class TestNormalize:
    def test_midpoint(self):
        assert normalize(5, 0, 10) == 0.5

    def test_degenerate_range_maps_to_zero(self):
        assert normalize(7, 7, 7) == 0.0

    def test_no_clamping_outside_range(self):
        assert normalize(20, 0, 10) == 2.0
        assert normalize(-5, 0, 10) == -0.5

    @pytest.mark.parametrize("value", [0.0, 3.5, 17.0, -2.0])
    def test_round_trips_with_denormalize(self, value):
        assert denormalize(normalize(value, 2.0, 9.0), 2.0, 9.0) == pytest.approx(value, abs=1e-12)


class TestMakeWindows:
    def test_window_count_is_length_minus_k_plus_one(self):
        series = gen_baseline(60, 100.0, 50.0, 0.0, seed=5)
        params = fit_normalization(series)
        assert len(make_windows(series, 50, params)) == 11

    def test_k_one_gives_two_vectors(self):
        series = series_of([0, 5, 10], [0, 2, 4])
        params = fit_normalization(series)
        windows = make_windows(series, 1, params)
        assert windows.tolist() == [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]

    def test_layout_announce_block_then_withdraw_block_oldest_first(self):
        series = series_of([0, 5, 10, 20], [8, 6, 4, 0])
        params = fit_normalization(series)
        windows = make_windows(series, 3, params)
        assert windows.shape == (2, 6) and windows.flags.c_contiguous
        first = windows[0]  # ends at minute index k-1
        assert series.minutes()[3 - 1] == NOON + 120
        assert first[0] == normalize(0, params.a_min, params.a_max)
        assert list(first[:3]) == [0.0, 0.25, 0.5]  # announcements, oldest first
        assert list(first[3:]) == [1.0, 0.75, 0.5]  # withdrawals, oldest first

    def test_series_shorter_than_k_yields_nothing(self):
        series = series_of([1, 2], [3, 4])
        assert make_windows(series, 3, fit_normalization(series)).shape == (0, 6)

    def test_training_range_values_lie_in_unit_interval(self):
        series = gen_baseline(500, 300.0, 80.0, 0.4, seed=9)
        params = fit_normalization(series)
        matrix = make_windows(series, 12, params)
        assert matrix.min() >= 0.0 and matrix.max() <= 1.0

    def test_out_of_range_values_escape_unit_interval_unclamped(self):
        quiet = gen_baseline(200, 300.0, 80.0, 0.0, seed=21)
        params = fit_normalization(quiet)
        stormy = series_of(
            (quiet.announcements * 10).tolist(), (quiet.withdrawals * 10).tolist()
        )
        matrix = make_windows(stormy, 12, params)
        assert matrix.max() > 1.0

    def test_adjacent_windows_share_shifted_values(self):
        series = gen_baseline(100, 200.0, 60.0, 0.0, seed=13)
        params = fit_normalization(series)
        windows = make_windows(series, 10, params)
        for earlier, later in zip(windows[:5], windows[1:6]):
            assert np.array_equal(earlier[1:10], later[0:9])
            assert np.array_equal(earlier[11:20], later[10:19])

    def test_denormalizing_recovers_raw_counts(self):
        series = gen_baseline(80, 150.0, 40.0, 0.2, seed=17)
        params = fit_normalization(series)
        windows = make_windows(series, 8, params)
        last = windows[-1]
        ann = [denormalize(v, params.a_min, params.a_max) for v in last[:8]]
        assert np.allclose(ann, series.announcements[-8:])
        wd = [denormalize(v, params.w_min, params.w_max) for v in last[8:]]
        assert np.allclose(wd, series.withdrawals[-8:])

    @pytest.mark.parametrize("minutes", [3, 10, 20])
    def test_out_receives_the_windows_in_its_first_rows(self, minutes):
        series = gen_baseline(minutes, 150.0, 40.0, 0.2, seed=minutes)
        params = fit_normalization(series)
        out = np.full((20, 6), -1.0)
        windows = make_windows(series, 3, params, out=out)
        n = minutes - 2
        assert np.shares_memory(windows, out) and windows.shape == (n, 6)
        assert np.array_equal(out[:n], make_windows(series, 3, params))
        assert (out[n:] == -1.0).all()

    def test_out_of_another_dtype_is_refused(self):
        series = gen_baseline(10, 150.0, 40.0, 0.2, seed=1)
        out = np.zeros((8, 6), np.float32)
        with pytest.raises(ValueError, match="float32"):
            make_windows(series, 3, fit_normalization(series), out=out)
        assert not out.any()

    def test_rejects_k_below_one(self):
        series = series_of([1], [1])
        with pytest.raises(ValueError):
            make_windows(series, 0, fit_normalization(series))


class TestWindowDtype:
    @pytest.mark.parametrize("k", [1, 3, 12, 50])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_float32_matrix_equals_the_cast_matrix_bit_for_bit(self, k, degenerate):
        series = gen_baseline(500, 300.0, 80.0, 0.4, seed=9)
        if degenerate:
            series = series_of(series.announcements, np.full(len(series), 4))
        params = fit_normalization(gen_baseline(200, 250.0, 60.0, 0.1, seed=10))  # scored values leave [0, 1]
        windows = make_windows(series, k, params, dtype=np.float32)
        assert windows.dtype == np.float32 and windows.flags.c_contiguous
        cast = make_windows(series, k, params).astype(np.float32)
        assert np.array_equal(windows.view(np.uint32), cast.view(np.uint32))


class TestSeriesSlices:
    @settings(max_examples=50, deadline=None)
    @given(minutes=st.integers(0, 90), k=st.integers(1, 9), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_windows_of_a_slice_are_rows_of_the_whole_matrix(self, minutes, k, data, seed):
        rng = np.random.default_rng(seed)
        series = series_of(rng.integers(0, 500, minutes), rng.integers(0, 90, minutes))
        params = NormalizationParams(20.0, 300.0, 0.0, 50.0)
        whole = make_windows(series, k, params)
        lo = data.draw(st.integers(0, len(whole)))
        hi = data.draw(st.integers(lo, len(whole)))
        minutes_of_rows = slice(lo, hi + k - 1)  # the minutes windows lo .. hi-1 cover
        part = MinuteSeries(
            series.minute_at(lo), series.announcements[minutes_of_rows], series.withdrawals[minutes_of_rows]
        )
        assert np.array_equal(make_windows(part, k, params), whole[lo:hi])
