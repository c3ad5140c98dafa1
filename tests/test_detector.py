"""Novelty scoring, alarm grouping, the rule baseline, and lead-time pairing."""

import io
import math
import re
import threading
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpnovelty.autoencoder import init_model, reconstruct
from bgpnovelty.detector import (
    AlarmEvent,
    BadQuantile,
    DetectorConfig,
    EmptyInput,
    NonFiniteValue,
    SOURCE_AUTOENCODER,
    SOURCE_RULE,
    UnsortedInput,
    detect_alarms,
    lead_time,
    read_alarm_report,
    read_novelty_csv,
    score_series,
    score_windows,
    suggest_threshold,
    write_alarm_report,
    write_novelty_csv,
)
from bgpnovelty import autoencoder, detector, series as series_module
from bgpnovelty.detector import SCORE_BLOCK_ROWS
from bgpnovelty.features import NormalizationParams, fit_normalization, make_windows
from bgpnovelty.series import MINUTE, BadTimestamp, MinuteSeries, format_minute_utc, parse_minute_utc
from bgpnovelty.synth import SurgeSpec, gen_baseline, inject_surge

from conftest import DIURNAL, MEAN_A, MEAN_W, cpus, threads_started, top15_series
from leadref import reference_lead_time
from test_autoencoder import tiny_model

MIN = 60
NOON = 1_000_080_000


def points_at(values, start=NOON):
    """Consecutive minutes from ``start`` and their values, as (minutes, values) arrays."""
    return start + MIN * np.arange(len(values)), np.asarray(values, dtype=np.float64)


def novelty(model, x):
    """Novelty of one vector, scored as a 1-row window matrix."""
    return score_series(model, np.asarray(x, dtype=np.float64)[None, :])[0]


def novelty_text(start, values):
    out = io.StringIO()
    write_novelty_csv(start, values, out)
    return out.getvalue()


class TestNovelty:
    def test_zero_when_reconstruction_is_exact(self):
        x = np.array([0.3, 0.7])
        model = tiny_model(np.zeros((1, 2)), [0.0], np.zeros((2, 1)), x)
        assert novelty(model, x) == 0.0

    def test_all_unit_errors_average_to_one(self):
        model = tiny_model(np.zeros((1, 4)), [0.0], np.zeros((4, 1)), np.ones(4))
        assert novelty(model, np.zeros(4)) == 1.0

    def test_hand_case(self):
        model = tiny_model(np.zeros((1, 2)), [0.0], np.zeros((2, 1)), [0.3, 0.6])
        assert abs(novelty(model, np.array([0.2, 0.4])) - 0.025) < 1e-15

    def test_invariant_under_joint_permutation(self):
        rng = np.random.default_rng(31)
        model = init_model(8, 5, seed=31)
        x = rng.uniform(size=8)
        base = novelty(model, x)
        # permuting inputs and outputs together means permuting the residual
        residual = reconstruct(model, x[None, :])[0] - x
        for _ in range(5):
            perm = rng.permutation(8)
            assert np.mean(residual[perm] ** 2) == pytest.approx(base, rel=1e-12)


class TestScoreSeries:
    def test_one_point_per_window_in_order(self):
        series = gen_baseline(60, 100.0, 40.0, 0.0, seed=41)
        params = fit_normalization(series)
        windows = make_windows(series, 50, params)
        model = init_model(100, 10, seed=41, norm=params)
        values = score_series(model, windows)
        assert values.shape == (11,)
        one_by_one = [novelty(model, row) for row in windows]
        assert np.allclose(values, one_by_one, rtol=1e-12, atol=0.0)

    def test_equals_the_out_of_place_formula_bit_for_bit(self):
        rng = np.random.default_rng(44)
        model = init_model(12, 7, seed=44)
        model = tiny_model(model.w1, rng.normal(size=7), model.w2, rng.normal(size=12))
        X = rng.uniform(size=(30, 12))
        before = X.copy()
        recon = np.tanh(X @ model.w1.T + model.b1) @ model.w2.T + model.b2
        assert np.array_equal(reconstruct(model, X), recon)
        assert np.array_equal(score_series(model, X), np.mean((recon - X) * (recon - X), axis=1))
        assert np.array_equal(X, before)

    def test_empty_windows_give_empty_points(self):
        model = init_model(4, 3, seed=0)
        assert score_series(model, np.zeros((0, 4))).shape == (0,)

    def test_dimension_mismatch_raises(self):
        from bgpnovelty.autoencoder import DimensionMismatch

        model = init_model(6, 4, seed=0)
        with pytest.raises(DimensionMismatch):
            novelty(model, np.zeros(5))
        with pytest.raises(DimensionMismatch):
            score_series(model, np.zeros((3, 5)))

    def test_seeded_surge_peaks_inside_surge_window(self):
        quiet = gen_baseline(400, 500.0, 150.0, 0.0, seed=43)
        params = fit_normalization(quiet)
        onset = quiet.minute_at(300)
        surged = inject_surge(quiet, SurgeSpec(onset, 20, "step", 10.0))
        model = init_model(16, 12, seed=43, norm=params)
        values = score_series(model, make_windows(surged, 8, params))
        best = surged.minutes()[8 - 1 + int(np.argmax(values))]
        assert onset <= best <= onset + 20 * MIN


class TestBlockScoring:
    @settings(max_examples=60, deadline=None)
    @given(
        minutes=st.integers(0, 160),
        k=st.integers(1, 12),
        hidden=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
        pick=st.sampled_from(["1", "n-1", "n", "n+1", "any"]),
        any_rows=st.integers(1, 200),
    )
    def test_equals_whole_matrix_scoring_exactly(self, minutes, k, hidden, seed, pick, any_rows):
        rng = np.random.default_rng(seed)
        series = MinuteSeries(NOON, rng.poisson(300.0, minutes), rng.integers(0, 1000, minutes))
        norm = NormalizationParams(50.0, 400.0, 0.0, 700.0)  # counts reach outside the range, as in a storm
        model = init_model(2 * k, hidden, seed=seed, norm=norm)
        model = replace(model, b1=rng.normal(size=hidden), b2=rng.normal(size=2 * k))
        n = max(minutes - k + 1, 0)
        rows = {"1": 1, "n-1": max(n - 1, 1), "n": max(n, 1), "n+1": n + 1, "any": any_rows}[pick]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(detector, "SCORE_BLOCK_ROWS", rows)
            whole = score_series(model, make_windows(series, k, norm))
            assert np.array_equal(score_windows(model, series), whole)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 2 * SCORE_BLOCK_ROWS + 300),
        k=st.integers(1, 50),
        hidden=st.integers(1, 100),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_a_row_scores_the_same_whatever_rows_surround_it(self, n, k, hidden, seed, data):
        # The padding to SCORE_BLOCK_ROWS rows exists for this: a slice of the matrix scores as the same slice
        # of the whole matrix's novelty, bit for bit, however its rows fall on block edges. Without it, calls of
        # a few rows round differently on some BLAS builds.
        rng = np.random.default_rng(seed)
        X = rng.uniform(-0.5, 2.0, (n, 2 * k))
        model = init_model(2 * k, hidden, seed=seed)
        model = replace(model, b1=rng.normal(size=hidden), b2=rng.normal(size=2 * k))
        a = data.draw(st.integers(0, n))
        b = a + data.draw(st.one_of(st.integers(0, min(40, n - a)), st.integers(0, n - a)))
        assert np.array_equal(score_series(model, X[a:b]), score_series(model, X)[a:b])

    @pytest.mark.parametrize("rows", [777, SCORE_BLOCK_ROWS - 1, SCORE_BLOCK_ROWS, SCORE_BLOCK_ROWS + 1])
    def test_equals_whole_matrix_scoring_across_block_edges_at_the_pipeline_shape(self, monkeypatch, rows):
        series = gen_baseline(2 * SCORE_BLOCK_ROWS + 300, 800.0, 200.0, 0.3, seed=5)
        norm = fit_normalization(series)
        model = init_model(100, 100, seed=5, norm=norm)
        monkeypatch.setattr(detector, "SCORE_BLOCK_ROWS", rows)
        assert np.array_equal(score_windows(model, series), score_series(model, make_windows(series, 50, norm)))

    def test_a_short_series_scores_no_windows(self):
        model = init_model(10, 4, seed=0)
        assert score_windows(model, MinuteSeries(NOON, [1, 2, 3], [4, 5, 6])).shape == (0,)

    def test_peak_memory_follows_the_block_not_the_series(self):
        self.assert_peak_memory_follows_the_block()

    def test_peak_memory_follows_the_block_on_a_many_core_host(self, monkeypatch):
        # The pool's cap, not the host's CPU count, bounds the workers and so their buffers.
        cpus(monkeypatch, 64)
        self.assert_peak_memory_follows_the_block()

    @staticmethod
    def assert_peak_memory_follows_the_block():
        k, hidden, windows = 50, 100, 50_000
        # Whole (windows, 2k) input, (windows, hidden) and (windows, 2k) output matrices would take 120 MB.
        minutes = windows + k - 1
        series = MinuteSeries(NOON, np.arange(minutes) % 17, np.arange(minutes) % 5)
        model = init_model(2 * k, hidden, seed=1, norm=NormalizationParams(0.0, 16.0, 0.0, 4.0))
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            values = score_windows(model, series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (windows,)
        assert peak < 25 * 2**20

    def test_a_short_block_is_padded_in_the_given_buffers(self):
        # As in score_windows, the block lies in the windows buffer, whose rows after it hold an earlier block.
        k, hidden, rows = 50, 100, 143
        model = init_model(2 * k, hidden, seed=1)
        buffers = tuple(np.empty((SCORE_BLOCK_ROWS, w)) for w in (2 * k, hidden, 2 * k))
        X = np.random.default_rng(1).uniform(-0.5, 2.0, (rows, 2 * k))
        buffers[0][:rows] = X
        buffers[0][rows:] = 1e200  # scored unpadded, their squared residuals would overflow
        tracemalloc.start()
        try:
            values = score_series(model, buffers[0][:rows], buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**10  # a fresh padded block alone would take 400 KiB
        assert np.array_equal(values, score_series(model, X))
        assert np.array_equal(score_series(model, X, buffers), values)  # a block from elsewhere is copied in

    @pytest.mark.parametrize("rows", [1024, 2048])
    def test_the_block_size_keeps_the_novelty_bits_at_the_pipeline_shape(self, pipeline, monkeypatch, rows):
        # At 100 inputs and 100 hidden units each block is above the BLAS small-matrix sizes, so the
        # shipped 512-row blocks score a month as the 1,024 rows before them did: the golden novelty digest
        # holds whatever the block size.
        assert SCORE_BLOCK_ROWS == 512
        month = gen_baseline(43_200, MEAN_A, MEAN_W, DIURNAL, seed=1)
        shipped = score_windows(pipeline.model, month)
        monkeypatch.setattr(detector, "SCORE_BLOCK_ROWS", rows)
        assert np.array_equal(score_windows(pipeline.model, month), shipped)


class TestScoreWorkers:
    """``score_windows`` runs its blocks on the training pool, with the same novelty at any pool size."""

    @staticmethod
    def scored(minutes, k=3, hidden=4, seed=0):
        rng = np.random.default_rng(seed)
        series = MinuteSeries(NOON, rng.poisson(300.0, minutes), rng.integers(0, 1000, minutes))
        norm = NormalizationParams(50.0, 400.0, 0.0, 700.0)
        model = init_model(2 * k, hidden, seed=seed, norm=norm)
        return replace(model, b1=rng.normal(size=hidden), b2=rng.normal(size=2 * k)), series

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 12),
        hidden=st.integers(1, 24),
        count=st.sampled_from([1, 2, 3, 5]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_same_novelty_at_any_cpu_count(self, k, hidden, count, seed, data):
        edges = [0, k - 1, k, k + SCORE_BLOCK_ROWS - 1, k + SCORE_BLOCK_ROWS, k + SCORE_BLOCK_ROWS + 1]
        minutes = data.draw(st.sampled_from(edges) | st.integers(0, 3 * SCORE_BLOCK_ROWS + 60))
        model, series = self.scored(minutes, k, hidden, seed)
        whole = score_series(model, make_windows(series, k, model.norm))
        # mock, not monkeypatch: a function-scoped fixture would span every example of @given
        with mock.patch.object(autoencoder, "_usable_cpus", lambda: count):
            assert np.array_equal(score_windows(model, series), whole)

    def test_one_cpu_runs_every_block_in_the_calling_thread(self, block_threads, monkeypatch):
        cpus(monkeypatch, 1)
        started = threads_started(monkeypatch)
        model, series = self.scored(3 * SCORE_BLOCK_ROWS + 2)
        assert score_windows(model, series).shape == (3 * SCORE_BLOCK_ROWS,)
        assert block_threads == {threading.current_thread()}
        assert not started

    def test_a_one_block_series_starts_no_thread(self, block_threads, monkeypatch):
        cpus(monkeypatch, 3)
        started = threads_started(monkeypatch)
        model, series = self.scored(SCORE_BLOCK_ROWS + 2)
        assert score_windows(model, series).shape == (SCORE_BLOCK_ROWS,)
        assert block_threads == {threading.current_thread()}
        assert not started

    def test_the_blocks_run_on_the_pool_and_no_thread_outlives_it(
        self, block_threads, helpers_take_blocks, monkeypatch
    ):
        cpus(monkeypatch, 3)
        started = threads_started(monkeypatch)
        before = threading.active_count()
        model, series = self.scored(4 * SCORE_BLOCK_ROWS + 2)
        score_windows(model, series)
        assert 1 <= len(started) <= 2  # helpers, one per CPU but the calling thread's
        assert block_threads - {threading.current_thread()}
        assert threading.active_count() == before

    def test_the_short_last_block_runs_on_the_pool_like_the_whole_blocks(self, monkeypatch):
        # score_series pads it in the worker's own window buffer, so a worker allocates no block its heap would keep.
        cpus(monkeypatch, 3)
        calls = []
        score = detector.score_series

        def recorded(model, X, buffers=None):
            calls.append((len(X), buffers is not None))
            return score(model, X, buffers)

        monkeypatch.setattr(detector, "score_series", recorded)
        model, series = self.scored(3 * SCORE_BLOCK_ROWS + 102)
        score_windows(model, series)
        assert sorted(calls) == [(100, True)] + [(SCORE_BLOCK_ROWS, True)] * 3

    def test_a_many_core_host_starts_at_most_max_blocks_workers(self, monkeypatch):
        cpus(monkeypatch, 64)
        started = threads_started(monkeypatch)
        forward = autoencoder._forward

        def slow(*args):
            time.sleep(0.01)  # every block is still running when the last one is submitted
            return forward(*args)

        monkeypatch.setattr(autoencoder, "_forward", slow)
        model, series = self.scored(4 * autoencoder._MAX_BLOCKS * SCORE_BLOCK_ROWS + 2)
        score_windows(model, series)
        assert 1 <= len(started) <= autoencoder._MAX_BLOCKS - 1

    def test_the_workers_keep_the_callers_error_handling(self, helpers_take_blocks, monkeypatch):
        cpus(monkeypatch, 3)
        model, series = self.scored(3 * SCORE_BLOCK_ROWS + 2)
        model = replace(model, w2=np.full_like(model.w2, 1e200))
        # The squared residuals overflow. The pytest configuration turns numpy's warning into an error,
        # so a worker that ignored the caller's errstate would raise.
        with np.errstate(all="ignore"):
            values = score_windows(model, series)
        assert np.isinf(values).all()

    def test_a_blocks_exception_reaches_the_caller_after_the_pool_shuts_down(self, helpers_take_blocks, monkeypatch):
        cpus(monkeypatch, 3)
        failure = ArithmeticError("raised in a block")
        forward = autoencoder._forward

        def failing(*args):
            out = forward(*args)
            if threading.current_thread() is not threading.main_thread():
                raise failure
            return out

        monkeypatch.setattr(autoencoder, "_forward", failing)
        before = threading.active_count()
        model, series = self.scored(3 * SCORE_BLOCK_ROWS + 2)
        with pytest.raises(ArithmeticError) as raised:
            score_windows(model, series)
        assert raised.value is failure
        assert threading.active_count() == before

    @pytest.mark.parametrize("count,blocks,sets", [(3, 4, 3), (3, 2, 2), (1, 4, 1), (64, 9, 8)])
    def test_buffer_sets_are_made_in_the_calling_thread_for_the_blocks_that_run_at_once(
        self, count, blocks, sets, buffer_sets, monkeypatch
    ):
        cpus(monkeypatch, count)
        model, series = self.scored((blocks - 1) * SCORE_BLOCK_ROWS + 3)
        assert score_windows(model, series).shape == ((blocks - 1) * SCORE_BLOCK_ROWS + 1,)
        assert buffer_sets == [threading.current_thread()] * sets


class TestDetectAlarms:
    def test_contiguous_exceedances_form_one_event(self):
        events = detect_alarms(*points_at([0.1, 0.9, 0.95, 0.2]), DetectorConfig(0.5, 0))
        assert len(events) == 1
        event = events[0]
        assert event.start_s == NOON + MIN
        assert event.end_s == NOON + 2 * MIN
        assert event.peak_s == NOON + 2 * MIN
        assert event.peak_value == 0.95

    def test_gap_grouping_semantics(self):
        values = [1.0] + [0.0] * 89 + [1.0]  # two exceedances 90 minutes apart
        assert len(detect_alarms(*points_at(values), DetectorConfig(0.5, 60))) == 2
        assert len(detect_alarms(*points_at(values), DetectorConfig(0.5, 120))) == 1

    def test_all_below_threshold_is_empty(self):
        assert detect_alarms(*points_at([0.1, 0.2, 0.3]), DetectorConfig(0.5, 60)) == []

    def test_threshold_equal_value_does_not_fire(self):
        assert detect_alarms(*points_at([0.5, 0.5]), DetectorConfig(0.5, 0)) == []

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_is_rejected(self, threshold):
        # no value exceeds NaN or +inf, and every value exceeds -inf
        with pytest.raises(ValueError, match=f"^threshold must be finite, got {threshold}$"):
            DetectorConfig(threshold)

    def test_unsorted_input_raises(self):
        minutes = np.array([NOON + MIN, NOON])
        with pytest.raises(UnsortedInput):
            detect_alarms(minutes, np.array([1.0, 1.0]), DetectorConfig(0.5, 0))

    def test_events_are_sorted_and_disjoint(self):
        rng = np.random.default_rng(47)
        values = rng.uniform(size=500)
        events = detect_alarms(*points_at(values), DetectorConfig(0.8, 5))
        for earlier, later in zip(events, events[1:]):
            assert earlier.end_s < later.start_s

    def test_alarms_are_monotone_in_threshold(self):
        rng = np.random.default_rng(48)
        values = rng.uniform(size=600)
        low = detect_alarms(*points_at(values), DetectorConfig(0.6, 10))
        high = detect_alarms(*points_at(values), DetectorConfig(0.9, 10))
        for strict in high:
            assert any(
                loose.start_s <= strict.start_s and strict.end_s <= loose.end_s
                for loose in low
            )


class TestRuleAlarms:
    def test_reference_series_events(self):
        series = top15_series()
        events = detect_alarms(series.minutes(), series.totals(), DetectorConfig(590_000), SOURCE_RULE)
        assert [(e.start_s, e.peak_value) for e in events] == [
            (parse_minute_utc("2001-07-27T14:50:00Z"), 595001.0),
            (parse_minute_utc("2001-08-02T13:30:00Z"), 592458.0),
        ]
        assert all(e.source == SOURCE_RULE for e in events)

    def test_adjacent_exceedances_merge(self):
        from bgpnovelty.series import MinuteSeries

        series = MinuteSeries(NOON, [100, 700_000, 650_000, 50], [0, 0, 0, 0])
        events = detect_alarms(series.minutes(), series.totals(), DetectorConfig(590_000, 0), SOURCE_RULE)
        assert len(events) == 1
        assert events[0].start_s == NOON + MIN
        assert events[0].end_s == NOON + 2 * MIN

    def test_threshold_above_global_max_is_empty(self):
        series = top15_series()
        assert detect_alarms(series.minutes(), series.totals(), DetectorConfig(600_000), SOURCE_RULE) == []


class TestSuggestThreshold:
    def test_nearest_rank_on_thousand_values(self):
        _, values = points_at(list(range(1, 1001)))
        assert suggest_threshold(values, 0.999) == 999

    def test_quantile_one_is_maximum(self):
        _, values = points_at([5.0, 1.0, 3.0])
        assert suggest_threshold(values, 1.0) == 5.0

    def test_single_point_for_any_quantile(self):
        for q in (0.001, 0.5, 1.0):
            assert suggest_threshold(np.array([2.5]), q) == 2.5

    def test_monotone_in_quantile(self):
        rng = np.random.default_rng(53)
        values = rng.uniform(size=200)
        quantiles = [0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0]
        thresholds = [suggest_threshold(values, q) for q in quantiles]
        assert thresholds == sorted(thresholds)

    def test_rejects_empty_and_bad_quantile(self):
        with pytest.raises(EmptyInput):
            suggest_threshold(np.array([]), 0.5)
        for q in (0.0, -0.5, 1.5):
            with pytest.raises(BadQuantile):
                suggest_threshold(np.array([1.0]), q)


def event(start_min, source="autoencoder", span=5):
    start = NOON + MIN * start_min
    return AlarmEvent(start, start + MIN * span, start, 1.0, source)


class TestLeadTime:
    def test_autoencoder_leading_by_an_hour(self):
        matches = lead_time([event(0)], [event(60, SOURCE_RULE)], 240)
        (ae, rule, lead) = matches[0]
        assert lead == 60

    def test_simultaneous_alarms_have_zero_lead(self):
        matches = lead_time([event(0)], [event(0, SOURCE_RULE)], 240)
        assert matches[0][2] == 0

    def test_no_rule_event_in_window_reports_none(self):
        matches = lead_time([event(0)], [event(500, SOURCE_RULE)], 240)
        assert matches[0][1] is None and matches[0][2] is None

    def test_each_rule_event_claimed_at_most_once(self):
        matches = lead_time([event(0), event(10)], [event(30, SOURCE_RULE)], 240)
        assert matches[0][2] == 30
        assert matches[1][1] is None

    def test_negative_lead_when_rule_fires_first(self):
        matches = lead_time([event(60)], [event(0, SOURCE_RULE)], 240)
        assert matches[0][2] == -60

    def test_window_of_zero_pairs_same_minute_starts_and_a_negative_window_raises(self):
        assert lead_time([event(0)], [event(0, SOURCE_RULE)], 0)[0][2] == 0
        with pytest.raises(ValueError, match="match window must be >= 0 minutes, got -5"):
            lead_time([event(0)], [event(0, SOURCE_RULE)], -5)


    def test_unsorted_input_raises_naming_the_first_event_out_of_order(self):
        rules = [event(100, SOURCE_RULE), event(0, SOURCE_RULE)]
        assert lead_time([event(0)], rules[::-1], 10)[0][2] == 0
        message = f"^rule events not sorted by start: event 2 starts at {format_minute_utc(NOON)}, before event 1$"
        with pytest.raises(UnsortedInput, match=message):
            lead_time([event(0)], rules, 10)
        with pytest.raises(UnsortedInput, match="^autoencoder events not sorted by start: event 3 starts at "):
            lead_time([event(0), event(5), event(4), event(3)], [], 10)


# Starts a few minutes apart with repeats, so ties, overlapping windows and
# contested rule events are common.
sorted_starts = st.lists(st.integers(min_value=0, max_value=60), max_size=40).map(sorted)


class TestLeadTimeMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(ae_starts=sorted_starts, rule_starts=sorted_starts, window=st.integers(min_value=0, max_value=70))
    def test_forward_pairing_equals_rescanning_loop(self, ae_starts, rule_starts, window):
        ae_events = [event(start) for start in ae_starts]
        rule_events = [event(start, SOURCE_RULE) for start in rule_starts]
        expected = reference_lead_time(ae_events, rule_events, window)
        assert lead_time(ae_events, rule_events, window) == expected


class TestFormats:
    def test_novelty_csv_round_trip(self):
        minutes, values = points_at([0.0, 0.12345678901234567, 3.5e-7])
        again_minutes, again_values = read_novelty_csv(io.BytesIO(novelty_text(NOON, values).encode()))
        assert again_minutes.dtype == np.int64 and again_values.dtype == np.float64
        assert np.array_equal(again_minutes, minutes)
        assert np.array_equal(again_values, values)

    def test_novelty_csv_is_written_in_blocks(self, monkeypatch):
        minutes, values = points_at([0.5, 1.5, 2.5, 3.5, 4.5])
        whole = novelty_text(NOON, values)
        monkeypatch.setattr(series_module, "CSV_BLOCK_ROWS", 2)
        assert novelty_text(NOON, values) == whole
        assert whole.splitlines()[-1] == f"{format_minute_utc(int(minutes[-1]))},4.5"

    @pytest.mark.parametrize(
        "start, values",
        [
            (parse_minute_utc("9999-12-31T23:59:00Z"), [1.0, 2.0]),  # the last minute passes year 9999
            (parse_minute_utc("0001-01-01T00:00:00Z") - MIN, [1.0]),  # the first minute precedes year 0001
        ],
    )
    def test_novelty_csv_checks_before_writing_anything(self, monkeypatch, start, values):
        monkeypatch.setattr(series_module, "CSV_BLOCK_ROWS", 1)
        out = io.StringIO()
        with pytest.raises(ValueError, match="outside the years 0001-9999"):
            write_novelty_csv(start, np.array(values), out)
        assert out.getvalue() == ""

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_novelty_csv_rejects_non_finite_values(self, text):
        csv = (
            "minute_utc,novelty\n"
            "2001-06-02T00:00:00Z,5.0\n"
            f"2001-06-02T00:01:00Z,{text}\n"
        )
        with pytest.raises(NonFiniteValue, match="line 3"):
            read_novelty_csv(io.BytesIO(csv.encode()))

    def test_novelty_csv_names_the_line_of_a_bad_value(self):
        csv = "minute_utc,novelty\n2001-06-02T00:00:00Z,5.0\n2001-06-02T00:01:00Z,abc\n"
        with pytest.raises(ValueError, match="line 3: could not convert"):
            read_novelty_csv(io.BytesIO(csv.encode()))

    def test_novelty_csv_names_the_line_of_a_bad_timestamp(self):
        csv = "minute_utc,novelty\n2001-06-02T00:00:00Z,5.0\n2001-06-02T00:01:30Z,1.0\n"
        with pytest.raises(BadTimestamp, match="line 3: "):
            read_novelty_csv(io.BytesIO(csv.encode()))

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            (["2001-06-02T00:01:00Z,abc", "2001-06-02T00:02:30Z,1.0", "2001-06-02T00:03:00Z"],
             ValueError, "line 3: could not convert string to float: 'abc'"),
            (["2001-06-02T00:01:00Z,nan", "2001-06-02T00:02:00Z"],
             NonFiniteValue, "line 3: novelty is not finite: 'nan'"),
            (["2001-06-02T00:01:00Z", "2001-06-02T00:02:00Z,abc"],
             ValueError, "line 3: expected 2 fields, got 1"),
            (["2001-06-31T00:01:00Z,abc"], BadTimestamp, "line 3: invalid calendar timestamp"),
            (["", "2001-06-02T00:01:00Z,1.0", "\u0662001-06-02T00:02:00Z,1.0"],
             BadTimestamp, "line 5: not a minute-aligned UTC timestamp"),
        ],
    )
    def test_novelty_csv_names_the_first_bad_row(self, rows, error, message):
        csv = "minute_utc,novelty\n2001-06-02T00:00:00Z,5.0\n" + "\n".join(rows) + "\n"
        with pytest.raises(error, match=re.escape(message)) as raised:
            read_novelty_csv(io.BytesIO(csv.encode()))
        assert type(raised.value) is error

    def test_novelty_values_keep_the_float_syntax(self):
        csv = "minute_utc,novelty\n2001-06-02T00:00:00Z, 1_0.5 \n2001-06-02T00:01:00Z,\u0662\n"
        assert read_novelty_csv(io.BytesIO(csv.encode()))[1].tolist() == [10.5, 2.0]

    def test_empty_novelty_csv_gives_empty_arrays(self):
        minutes, values = read_novelty_csv(io.BytesIO(b"minute_utc,novelty\n"))
        assert minutes.dtype == np.int64 and values.dtype == np.float64
        assert minutes.shape == values.shape == (0,)

    def test_alarm_report_round_trip(self):
        events = [event(0), event(100, SOURCE_RULE)]
        assert read_alarm_report(write_alarm_report(events)) == events

    def test_alarm_report_is_a_json_array(self):
        import json

        document = json.loads(write_alarm_report([event(3)]))
        assert isinstance(document, list)
        assert set(document[0]) == {"start", "end", "peak_minute", "peak_value", "source"}


def reference_detect_alarms(points, cfg, source=SOURCE_AUTOENCODER):
    """Per-point grouping loop the array version must reproduce."""
    events: list[AlarmEvent] = []
    previous_minute = None
    start = end = peak_minute = None
    peak = -math.inf
    merge_span = (cfg.group_gap_minutes + 1) * MINUTE

    for minute_s, value in points:
        if previous_minute is not None and minute_s <= previous_minute:
            raise UnsortedInput(
                f"points not in ascending minute order at {format_minute_utc(minute_s)}"
            )
        previous_minute = minute_s
        if value <= cfg.threshold:
            continue
        if start is not None and minute_s - end <= merge_span:
            end = minute_s
            if value > peak:
                peak = value
                peak_minute = minute_s
        else:
            if start is not None:
                events.append(AlarmEvent(start, end, peak_minute, peak, source))
            start = end = peak_minute = minute_s
            peak = value
    if start is not None:
        events.append(AlarmEvent(start, end, peak_minute, peak, source))
    return events


# A few fixed levels make ties and threshold-equal values common; the float
# range covers everything in between.
scores = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(min_value=-1.0, max_value=3.0)
)


class TestDetectAlarmsMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(st.integers(min_value=1, max_value=90), max_size=120),
        data=st.data(),
        threshold=scores,
        gap=st.integers(min_value=0, max_value=120),
    )
    def test_array_grouping_equals_per_point_loop(self, steps, data, threshold, gap):
        minutes = NOON + MIN * np.cumsum([0, *steps])
        values = data.draw(st.lists(scores, min_size=minutes.size, max_size=minutes.size))
        cfg = DetectorConfig(threshold, gap)
        expected = reference_detect_alarms(zip(minutes.tolist(), values), cfg)
        assert detect_alarms(minutes, np.array(values), cfg) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        offsets=st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=40).filter(
            lambda m: any(b <= a for a, b in zip(m, m[1:]))
        ),
        threshold=scores,
    )
    def test_non_ascending_minutes_raise(self, offsets, threshold):
        minutes = NOON + MIN * np.array(offsets)
        values = np.ones(minutes.size)
        cfg = DetectorConfig(threshold, 0)
        with pytest.raises(UnsortedInput) as expected:
            reference_detect_alarms(zip(minutes.tolist(), values.tolist()), cfg)
        with pytest.raises(UnsortedInput, match=str(expected.value)):
            detect_alarms(minutes, values, cfg)
