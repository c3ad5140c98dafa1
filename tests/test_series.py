"""Minute bucketing, CSV round trips, and ranking."""

import numpy as np
import pytest

from bgpnovelty.mrt import UpdateRecord
from bgpnovelty.series import (
    BadHeader,
    BadTimestamp,
    BucketCsvError,
    InvalidRange,
    MinuteSeries,
    NegativeCount,
    NonMonotonic,
    bucketize,
    format_minute_utc,
    parse_minute_utc,
    read_bucket_csv,
    slice_range,
    top_n,
    write_bucket_csv,
)

from conftest import TOP15, top15_csv_text, top15_series

NOON = 1_000_080_000  # minute-aligned epoch seconds


def bucket(series, i):
    """(minute start, announcements, withdrawals) of bucket ``i``."""
    return int(series.minutes()[i]), int(series.announcements[i]), int(series.withdrawals[i])


class TestTimestamps:
    def test_round_trip(self):
        assert parse_minute_utc("2001-07-27T14:50:00Z") == 996245400
        assert format_minute_utc(996245400) == "2001-07-27T14:50:00Z"

    @pytest.mark.parametrize(
        "text",
        [
            "2001-07-27T14:50:30Z",  # seconds must be 00
            "2001-07-27 14:50:00Z",
            "2001-07-27T14:50:00",
            "2001-13-01T00:00:00Z",
            "garbage",
        ],
    )
    def test_rejects_non_minute_timestamps(self, text):
        with pytest.raises(BadTimestamp):
            parse_minute_utc(text)


class TestBucketize:
    def test_sums_records_within_a_minute(self):
        records = [UpdateRecord(NOON + 30, 2, 0), UpdateRecord(NOON + 45, 3, 0)]
        series = bucketize(records, NOON, NOON)
        assert bucket(series, 0) == (NOON, 5, 0)

    def test_minutes_without_records_hold_zeros(self):
        records = [UpdateRecord(NOON, 1, 1), UpdateRecord(NOON + 120, 2, 2)]
        series = bucketize(records, NOON, NOON + 120)
        assert bucket(series, 1) == (NOON + 60, 0, 0)

    def test_empty_records_give_all_zero_buckets(self):
        series = bucketize([], NOON, NOON + 120)
        assert len(series) == 3
        assert series.totals().sum() == 0

    def test_records_outside_range_are_dropped(self):
        records = [UpdateRecord(NOON - 1, 9, 9), UpdateRecord(NOON + 180, 9, 9)]
        series = bucketize(records, NOON, NOON + 120)
        assert series.totals().sum() == 0

    def test_is_permutation_invariant(self):
        rng = np.random.default_rng(3)
        records = [
            UpdateRecord(NOON + int(rng.integers(0, 600)), int(rng.integers(0, 5)), int(rng.integers(0, 5)))
            for _ in range(200)
        ]
        shuffled = list(records)
        rng.shuffle(shuffled)
        a = bucketize(records, NOON, NOON + 540)
        b = bucketize(shuffled, NOON, NOON + 540)
        assert np.array_equal(a.announcements, b.announcements)
        assert np.array_equal(a.withdrawals, b.withdrawals)

    def test_conserves_in_range_counts(self):
        rng = np.random.default_rng(4)
        records = [
            UpdateRecord(NOON + int(rng.integers(0, 600)), int(rng.integers(0, 7)), int(rng.integers(0, 7)))
            for _ in range(300)
        ]
        series = bucketize(records, NOON, NOON + 540)
        in_range = [r for r in records if NOON <= r.timestamp_s < NOON + 600]
        assert int(series.totals().sum()) == sum(r.announced + r.withdrawn for r in in_range)

    @pytest.mark.parametrize("minutes", [1, 2, 17, 1440])
    def test_length_is_range_size_regardless_of_sparsity(self, minutes):
        series = bucketize([], NOON, NOON + 60 * (minutes - 1))
        assert len(series) == minutes

    def test_rejects_bad_ranges(self):
        with pytest.raises(InvalidRange):
            bucketize([], NOON + 60, NOON)
        with pytest.raises(InvalidRange):
            bucketize([], NOON + 30, NOON + 90)


class TestTotals:
    def test_total_is_sum_of_channels(self):
        assert MinuteSeries(NOON, [3, 0], [2, 0]).totals().tolist() == [5, 0]

    def test_reference_peak_minute_total(self):
        series = top15_series()
        i = (parse_minute_utc("2001-07-27T14:50:00Z") - series.start_minute_s) // 60
        assert series.totals()[i] == 595001


class TestTopN:
    def test_reference_table_reproduced_exactly(self):
        ranking = top_n(top15_series(), 15)
        expected = [(parse_minute_utc(ts), total) for ts, total in TOP15]
        assert ranking == expected
        assert ranking[0][1] == 595001
        assert ranking[-1][1] == 418252

    def test_n_zero_is_empty(self):
        assert top_n(top15_series(), 0) == []

    def test_ties_rank_earlier_minute_first(self):
        series = MinuteSeries(NOON, [5, 9, 9, 1], [0, 0, 0, 0])
        assert top_n(series, 2) == [(NOON + 60, 9), (NOON + 120, 9)]

    def test_n_beyond_length_returns_full_ranking(self):
        series = MinuteSeries(NOON, [1, 2], [0, 0])
        assert len(top_n(series, 10)) == 2


class TestBucketCsv:
    def test_reads_single_row(self):
        text = "minute_utc,announcements,withdrawals\n2001-07-27T14:50:00Z,500000,95001\n"
        series = read_bucket_csv(text)
        assert len(series) == 1
        assert bucket(series, 0) == (996245400, 500000, 95001)

    def test_round_trips_through_write(self):
        text = top15_csv_text()
        series = read_bucket_csv(text)
        again = read_bucket_csv(write_bucket_csv(series))
        assert np.array_equal(series.announcements, again.announcements)
        assert np.array_equal(series.withdrawals, again.withdrawals)

    def test_interior_gap_is_zero_filled(self):
        text = (
            "minute_utc,announcements,withdrawals\n"
            "2001-07-05T17:14:00Z,10,1\n"
            "2001-07-05T17:17:00Z,20,2\n"
        )
        series = read_bucket_csv(text)
        assert len(series) == 4
        assert bucket(series, 1) == (parse_minute_utc("2001-07-05T17:15:00Z"), 0, 0)
        assert series.announcements[2] == 0

    def test_accepts_crlf(self):
        text = "minute_utc,announcements,withdrawals\r\n2001-07-27T14:50:00Z,1,2\r\n"
        assert len(read_bucket_csv(text)) == 1

    def test_rejects_wrong_header(self):
        with pytest.raises(BadHeader):
            read_bucket_csv("minute,announcements,withdrawals\n")

    def test_rejects_sub_minute_timestamp(self):
        text = "minute_utc,announcements,withdrawals\n2001-07-27T14:50:30Z,1,2\n"
        with pytest.raises(BadTimestamp):
            read_bucket_csv(text)

    def test_rejects_negative_count(self):
        text = "minute_utc,announcements,withdrawals\n2001-07-27T14:50:00Z,-1,2\n"
        with pytest.raises(NegativeCount):
            read_bucket_csv(text)

    def test_rejects_equal_timestamps(self):
        text = (
            "minute_utc,announcements,withdrawals\n"
            "2001-07-27T14:50:00Z,1,2\n"
            "2001-07-27T14:50:00Z,3,4\n"
        )
        with pytest.raises(NonMonotonic):
            read_bucket_csv(text)

    def test_rejects_descending_timestamps(self):
        text = (
            "minute_utc,announcements,withdrawals\n"
            "2001-07-27T14:51:00Z,1,2\n"
            "2001-07-27T14:50:00Z,3,4\n"
        )
        with pytest.raises(NonMonotonic):
            read_bucket_csv(text)

    def test_rejects_malformed_count(self):
        text = "minute_utc,announcements,withdrawals\n2001-07-27T14:50:00Z,abc,2\n"
        with pytest.raises(BucketCsvError):
            read_bucket_csv(text)

    @pytest.mark.parametrize("count", [2**63, 99999999999999999999])
    def test_rejects_count_beyond_int64(self, count):
        text = (
            "minute_utc,announcements,withdrawals\n"
            "2001-07-27T14:50:00Z,1,2\n"
            f"2001-07-27T14:51:00Z,3,{count}\n"
        )
        with pytest.raises(BucketCsvError, match="line 3: withdrawals exceeds int64"):
            read_bucket_csv(text)

    def test_accepts_int64_maximum(self):
        text = f"minute_utc,announcements,withdrawals\n2001-07-27T14:50:00Z,{2**63 - 1},0\n"
        assert read_bucket_csv(text).announcements.tolist() == [2**63 - 1]


class TestFillAndSlice:
    def test_header_only_csv_gives_empty_series(self):
        assert len(read_bucket_csv("minute_utc,announcements,withdrawals\n")) == 0

    def test_slice_range_is_inclusive(self):
        series = MinuteSeries(NOON, [1, 2, 3, 4], [0, 0, 0, 0])
        part = slice_range(series, NOON + 60, NOON + 120)
        assert list(part.announcements) == [2, 3]

    def test_slice_range_outside_series_raises(self):
        series = MinuteSeries(NOON, [1, 2], [0, 0])
        with pytest.raises(InvalidRange):
            slice_range(series, NOON - 60, NOON)
