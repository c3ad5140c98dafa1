"""Minute bucketing, CSV round trips, ranking, and the minute-timestamp codec."""

import calendar
import io
import re
import tracemalloc
from datetime import date, datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpnovelty import series as series_module
from bgpnovelty.series import (
    BUCKET_CSV_HEADER,
    CSV_BLOCK_ROWS,
    BadHeader,
    BadTimestamp,
    MAX_SERIES_MINUTES,
    BucketCsvError,
    CountOverflow,
    InvalidRange,
    MinuteSeries,
    NegativeCount,
    NonMonotonic,
    bucketize,
    format_minute_utc,
    format_minutes_utc,
    parse_minute_utc,
    parse_minutes_utc,
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

    @pytest.mark.parametrize(
        "text",
        ["0001-01-01T00:00:00Z", "0999-01-01T00:00:00Z", "0999-12-31T23:59:00Z", "9999-12-31T23:59:00Z"],
    )
    def test_round_trips_at_four_digit_year_bounds(self, text):
        assert format_minute_utc(parse_minute_utc(text)) == text

    def test_year_10000_raises_instead_of_writing_an_unreadable_stamp(self):
        last = parse_minute_utc("9999-12-31T23:59:00Z")
        with pytest.raises(ValueError, match="outside the years 0001-9999"):
            format_minute_utc(last + 60)
        with pytest.raises(ValueError, match=str(last + 60)):
            format_minutes_utc([last, last + 60, last + 120])

    def test_year_before_0001_raises(self):
        with pytest.raises(ValueError, match="outside the years 0001-9999"):
            format_minute_utc(parse_minute_utc("0001-01-01T00:00:00Z") - 60)

    def test_seconds_are_dropped_when_formatting(self):
        assert format_minutes_utc([61, -1]) == ["1970-01-01T00:01:00Z", "1969-12-31T23:59:00Z"]

    @pytest.mark.parametrize(
        "text",
        [
            "\u0662\u0660\u0662\u0660-01-01T00:00:00Z",  # Arabic-Indic digits
            "\uff12\uff10\uff12\uff10-01-01T00:00:00Z",  # fullwidth digits
            "2020-01-01T00:00:00Z\n",
        ],
    )
    def test_rejects_non_ascii_digits_and_trailing_newline(self, text):
        with pytest.raises(BadTimestamp, match="not a minute-aligned UTC timestamp"):
            parse_minute_utc(text)

    def test_batch_parse_names_the_first_bad_stamp(self):
        stamps = ["2001-07-27T14:50:00Z", "2001-02-29T00:00:00Z", "2001-07-27T14:50:30Z"]
        with pytest.raises(BadTimestamp, match="invalid calendar timestamp: '2001-02-29T00:00:00Z'"):
            parse_minutes_utc(stamps)

    def test_empty_column_gives_empty_arrays(self):
        minutes = parse_minutes_utc([])
        assert minutes.dtype == np.int64 and minutes.shape == (0,)
        assert format_minutes_utc(np.zeros(0, dtype=np.int64)) == []


# Scalar reference for the batched codec: a regex restricted to ASCII digits
# plus datetime for the calendar, and a strftime with the year zero-padded.
_REFERENCE_STAMP = re.compile(r"(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):00Z", re.ASCII)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_FIRST_MINUTE = -62135596800 // 60  # 0001-01-01T00:00Z
_LAST_MINUTE = 253402300740 // 60  # 9999-12-31T23:59Z


def reference_parse(text):
    match = _REFERENCE_STAMP.fullmatch(text)
    if not match:
        raise BadTimestamp(f"not a minute-aligned UTC timestamp: {text!r}")
    try:
        moment = datetime(*(int(g) for g in match.groups()), tzinfo=timezone.utc)
    except ValueError:
        raise BadTimestamp(f"invalid calendar timestamp: {text!r}") from None
    return int((moment - _EPOCH).total_seconds())


def reference_format(minute_s):
    moment = _EPOCH + timedelta(seconds=minute_s)
    return f"{moment.year:04d}" + moment.strftime("-%m-%dT%H:%M:00Z")


def _outcome(parse, text):
    try:
        return parse(text)
    except BadTimestamp as exc:
        return type(exc), str(exc)


minute_epochs = st.integers(min_value=_FIRST_MINUTE, max_value=_LAST_MINUTE).map(lambda m: 60 * m)

# Each mutation rewrites part of a valid stamp into a near miss.
_MUTATIONS = [
    lambda s, c: s[:4] + c + s[5:],  # date separator
    lambda s, c: s[:10] + c + s[11:],  # the "T"
    lambda s, c: s[:7] + c + s[8:],  # second date separator
    lambda s, c: s[:13] + c + s[14:],  # first time separator
    lambda s, c: s[:16] + c + s[17:],  # time separator
    lambda s, c: s[:18] + c + s[19:],  # a seconds digit
    lambda s, c: s[:19] + c,  # the "Z"
    lambda s, c: s[:17] + "30" + s[19:],  # seconds other than 00
    lambda s, c: s[:11] + "24" + s[13:],  # hour 24
    lambda s, c: s[:14] + "60" + s[16:],  # minute 60
    lambda s, c: s[:5] + "02-29" + s[10:],  # Feb 29, valid only in leap years
    lambda s, c: s[:5] + "02-30" + s[10:],
    lambda s, c: s[:5] + "13" + s[7:],  # month 13
    lambda s, c: s[:8] + "00" + s[10:],  # day 0
    lambda s, c: "0000" + s[4:],  # year 0
    lambda s, c: s + " ",  # trailing space
    lambda s, c: s[:-1],  # truncated
    lambda s, c: c + s[1:],  # replaced first year digit
    lambda s, c: s[:9] + c + s[10:],  # replaced last day digit
]
_REPLACEMENTS = st.sampled_from(["-", ":", "T", "Z", " ", "0", "9", "a", "\u0662", "\uff15", "\u00b2", "\x00"])


class TestCodecMatchesScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(minutes=st.lists(minute_epochs, max_size=50))
    def test_format_and_parse_equal_the_reference(self, minutes):
        stamps = format_minutes_utc(np.array(minutes, dtype=np.int64))
        assert stamps == [reference_format(m) for m in minutes]
        assert parse_minutes_utc(stamps).tolist() == minutes
        assert [reference_parse(s) for s in stamps] == minutes

    def test_many_shuffled_minutes_with_repeats_equal_the_reference(self):
        # 50 days around 1970-01-01 and 20 around 2000-02-29, drawn with repeats, in no order
        rng = np.random.default_rng(11)
        leap_day = 951782400 // 60
        around_epoch, around_leap_day = rng.integers(-25 * 1440, 25 * 1440, 9000), rng.integers(-14400, 14400, 3000)
        drawn = np.concatenate([around_epoch, leap_day + around_leap_day])
        minutes = 60 * rng.permutation(np.concatenate([drawn, drawn[:2000]]))
        stamps = format_minutes_utc(minutes)
        assert stamps == [reference_format(m) for m in minutes.tolist()]
        assert {"1969-12-07", "1970-01-25", "2000-02-29"} <= {stamp[:10] for stamp in stamps}
        assert np.array_equal(parse_minutes_utc(stamps), minutes)

    @settings(max_examples=500, deadline=None)
    @given(minute=minute_epochs, mutate=st.sampled_from(_MUTATIONS), char=_REPLACEMENTS)
    def test_mutated_stamps_are_judged_like_the_reference(self, minute, mutate, char):
        text = mutate(reference_format(minute), char)
        assert _outcome(parse_minute_utc, text) == _outcome(reference_parse, text)

    @pytest.mark.parametrize("year", [4, 100, 400, 1900, 1996, 2000, 2001, 2100, 2400, 9996, 9999])
    @pytest.mark.parametrize("day", ["02-28", "02-29", "02-30", "03-01", "12-31"])
    def test_leap_years_agree_with_the_reference(self, year, day):
        text = f"{year:04d}-{day}T12:34:00Z"
        assert _outcome(parse_minute_utc, text) == _outcome(reference_parse, text)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(max_size=24))
    def test_arbitrary_text_is_judged_like_the_reference(self, text):
        assert _outcome(parse_minute_utc, text) == _outcome(reference_parse, text)

    def test_every_day_from_0001_to_9999_round_trips_and_matches_python_dates(self):
        epoch, last = date(1970, 1, 1).toordinal(), date(9999, 12, 31).toordinal()
        clock = [f"T{minute // 60:02d}:{minute % 60:02d}:00Z" for minute in range(1440)]
        for lo in range(1, last + 1, 2**18):  # day numbers as date.toordinal gives them
            days = np.arange(lo, min(lo + 2**18, last + 1))
            minutes = 86400 * (days - epoch) + 60 * (days % 1440)  # a different time of day on each day
            stamps = format_minutes_utc(minutes)
            dates = map(date.isoformat, map(date.fromordinal, days.tolist()))
            assert stamps == list(map(str.__add__, dates, map(clock.__getitem__, (days % 1440).tolist())))
            assert np.array_equal(parse_minutes_utc(stamps), minutes)

    def test_february_29_is_rejected_exactly_in_non_leap_years(self):
        rejected = []
        for year in range(1, 10000):
            try:
                parse_minute_utc(f"{year:04d}-02-29T00:00:00Z")
            except BadTimestamp:
                rejected.append(year)
        assert rejected == [year for year in range(1, 10000) if not calendar.isleap(year)]


def rows(*records):
    """``(timestamp_s, announced, withdrawn)`` tuples as the ``(n, 3)`` array ``bucketize`` takes."""
    return np.array(records, dtype=np.int64).reshape(-1, 3)


def reference_bucketize(records, start, end):
    """Per-row Python sums over an inclusive minute range, as exact ints."""
    sums = [[0, 0] for _ in range((end - start) // 60 + 1)]
    for timestamp, announced, withdrawn in records:
        if start <= timestamp < end + 60:
            sums[(timestamp - start) // 60][0] += announced
            sums[(timestamp - start) // 60][1] += withdrawn
    return sums


record_rows = st.lists(
    st.tuples(st.integers(NOON - 300, NOON + 900), st.integers(0, 2**40), st.integers(0, 2**40)),
    max_size=60,
)

# bucketize's own row block, and blocks that put the edges between the rows a test draws
block_rows = pytest.mark.parametrize("block", [series_module._BUCKETIZE_ROWS, 1, 3], ids=["default", "1", "3"])


def in_blocks(block):
    """A context in which bucketize sums ``block`` rows at a time."""
    return mock.patch.object(series_module, "_BUCKETIZE_ROWS", block)


class TestBucketize:
    def test_sums_records_within_a_minute(self):
        records = rows((NOON + 30, 2, 0), (NOON + 45, 3, 0))
        series = bucketize(records, NOON, NOON)
        assert bucket(series, 0) == (NOON, 5, 0)

    def test_minutes_without_records_hold_zeros(self):
        records = rows((NOON, 1, 1), (NOON + 120, 2, 2))
        series = bucketize(records, NOON, NOON + 120)
        assert bucket(series, 1) == (NOON + 60, 0, 0)

    def test_empty_records_give_all_zero_buckets(self):
        series = bucketize(rows(), NOON, NOON + 120)
        assert len(series) == 3
        assert series.totals().sum() == 0

    def test_records_outside_range_are_dropped(self):
        records = rows((NOON - 1, 9, 9), (NOON + 180, 9, 9))
        series = bucketize(records, NOON, NOON + 120)
        assert series.totals().sum() == 0

    def test_is_permutation_invariant(self):
        rng = np.random.default_rng(3)
        records = rows(*(
            (NOON + int(rng.integers(0, 600)), int(rng.integers(0, 5)), int(rng.integers(0, 5)))
            for _ in range(200)
        ))
        shuffled = rng.permutation(records)
        a = bucketize(records, NOON, NOON + 540)
        b = bucketize(shuffled, NOON, NOON + 540)
        assert np.array_equal(a.announcements, b.announcements)
        assert np.array_equal(a.withdrawals, b.withdrawals)

    def test_conserves_in_range_counts(self):
        rng = np.random.default_rng(4)
        records = rows(*(
            (NOON + int(rng.integers(0, 600)), int(rng.integers(0, 7)), int(rng.integers(0, 7)))
            for _ in range(300)
        ))
        series = bucketize(records, NOON, NOON + 540)
        in_range = [r for r in records.tolist() if NOON <= r[0] < NOON + 600]
        assert int(series.totals().sum()) == sum(announced + withdrawn for _, announced, withdrawn in in_range)

    @pytest.mark.parametrize("minutes", [1, 2, 17, 1440])
    def test_length_is_range_size_regardless_of_sparsity(self, minutes):
        series = bucketize(rows(), NOON, NOON + 60 * (minutes - 1))
        assert len(series) == minutes

    def test_rejects_bad_ranges(self):
        with pytest.raises(InvalidRange):
            bucketize(rows(), NOON + 60, NOON)
        with pytest.raises(InvalidRange):
            bucketize(rows(), NOON + 30, NOON + 90)

    def test_rejects_records_not_in_three_columns(self):
        with pytest.raises(ValueError, match="shape"):
            bucketize(np.zeros((4, 2), dtype=np.int64), NOON, NOON + 60)

    def test_sums_past_2_53_are_exact(self):
        # float64 holds every integer only up to 2**53; 2**53 + 1 rounds to 2**53 there.
        records = rows((NOON, 2**53, 2**60), (NOON + 59, 1, 3), (NOON + 60, 2**62, 0), (NOON + 61, 2**62 - 1, 0))
        series = bucketize(records, NOON, NOON + 60)
        assert bucket(series, 0) == (NOON, 2**53 + 1, 2**60 + 3)
        assert bucket(series, 1) == (NOON + 60, 2**63 - 1, 0)

    @block_rows
    @settings(max_examples=200, deadline=None)
    @given(records=record_rows, lo=st.integers(-3, 3), span=st.integers(0, 12))
    def test_matches_per_row_sums(self, block, records, lo, span):
        start = NOON + 60 * lo
        with in_blocks(block):
            series = bucketize(rows(*records), start, start + 60 * span)
        assert np.column_stack((series.announcements, series.withdrawals)).tolist() == reference_bucketize(
            records, start, start + 60 * span
        )

    @settings(max_examples=100, deadline=None)
    @given(records=record_rows, span=st.integers(0, 12))
    def test_conserves_in_range_and_drops_the_rest(self, records, span):
        end = NOON + 60 * span
        series = bucketize(rows(*records), NOON, end)
        inside = [r for r in records if NOON <= r[0] < end + 60]
        assert int(series.announcements.sum()) == sum(r[1] for r in inside)
        assert int(series.withdrawals.sum()) == sum(r[2] for r in inside)
        assert len(series) == span + 1

    @block_rows
    @settings(max_examples=100, deadline=None)
    @given(records=record_rows, data=st.data())
    def test_any_permutation_gives_the_same_buckets(self, block, records, data):
        shuffled = data.draw(st.permutations(records))
        with in_blocks(block):
            a = bucketize(rows(*records), NOON, NOON + 600)
            b = bucketize(rows(*shuffled), NOON, NOON + 600)
        assert np.array_equal(a.announcements, b.announcements)
        assert np.array_equal(a.withdrawals, b.withdrawals)


int64_counts = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([2**62, -(2**62), 2**63 - 1, -(2**63), 2**32 - 1, 2**32, -1, 0]),
)


class TestSumsLeavingInt64:
    @pytest.mark.parametrize(
        "records, message",
        [
            (((NOON + 60, 2**62, 0), (NOON + 61, 2**62, 0)), "announcements of minute 2001-09-10T00:01:00Z"),
            (((NOON, 0, -(2**62)), (NOON, 0, -(2**62)), (NOON, 0, -1)), "withdrawals of minute 2001-09-10T00:00:00Z"),
            # the earliest minute is named, whichever channel leaves int64 there
            (((NOON + 60, 2**62, 0), (NOON + 60, 2**62, 0), (NOON, 0, 2**62), (NOON, 0, 2**62)),
             "withdrawals of minute 2001-09-10T00:00:00Z"),
        ],
    )
    def test_raises_naming_the_minute(self, records, message):
        with pytest.raises(CountOverflow, match=re.escape(message) + " sum past int64"):
            bucketize(rows(*records), NOON, NOON + 60)

    def test_sums_reaching_either_bound_are_exact(self):
        records = rows((NOON, 2**62, -(2**62)), (NOON, 2**62 - 1, -(2**62)))
        assert bucket(bucketize(records, NOON, NOON), 0) == (NOON, 2**63 - 1, -(2**63))

    @block_rows
    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(st.tuples(st.integers(NOON, NOON + 179), int64_counts, int64_counts), max_size=12))
    def test_matches_python_sums_or_names_the_first_overflow(self, block, records):
        expected = reference_bucketize(records, NOON, NOON + 120)
        outside = [(i, c) for i, sums in enumerate(expected) for c in (0, 1) if not -(2**63) <= sums[c] < 2**63]
        if outside:
            minute, channel = outside[0]
            name = ("announcements", "withdrawals")[channel]
            with in_blocks(block), pytest.raises(
                CountOverflow, match=f"{name} of minute {format_minute_utc(NOON + 60 * minute)}"
            ):
                bucketize(rows(*records), NOON, NOON + 120)
        else:
            with in_blocks(block):
                series = bucketize(rows(*records), NOON, NOON + 120)
            assert np.column_stack((series.announcements, series.withdrawals)).tolist() == expected


class TestSeriesLimit:
    def test_bucketize_rejects_a_range_past_the_limit(self):
        with pytest.raises(InvalidRange, match=f"range of {MAX_SERIES_MINUTES + 1} minutes exceeds the"):
            bucketize(rows((NOON, 1, 1)), NOON, NOON + 60 * MAX_SERIES_MINUTES)

    def test_slice_range_shares_the_limit(self):
        series = MinuteSeries(NOON, [1, 2], [0, 0])
        with pytest.raises(InvalidRange, match="exceeds the 4194304-minute series limit"):
            slice_range(series, NOON, NOON + 60 * MAX_SERIES_MINUTES)
        with pytest.raises(InvalidRange, match="not covered"):  # a range of exactly the limit passes that check
            slice_range(series, NOON, NOON + 60 * (MAX_SERIES_MINUTES - 1))

    def test_reader_rejects_the_first_row_past_the_limit(self):
        last = format_minute_utc(NOON + 60 * (MAX_SERIES_MINUTES - 1))
        past = format_minute_utc(NOON + 60 * MAX_SERIES_MINUTES)
        text = f"minute_utc,announcements,withdrawals\n{format_minute_utc(NOON)},1,2\n{last},3,4\n{past},5,6\n"
        with pytest.raises(BucketCsvError, match=f"line 4: timestamp {past} exceeds the {MAX_SERIES_MINUTES}-minute"):
            read_bucket_csv(io.BytesIO(text.encode()))

    def test_reader_accepts_a_series_of_exactly_the_limit(self):
        last = format_minute_utc(NOON + 60 * (MAX_SERIES_MINUTES - 1))
        text = f"minute_utc,announcements,withdrawals\n{format_minute_utc(NOON)},1,2\n{last},3,4\n"
        series = read_bucket_csv(io.BytesIO(text.encode()))
        assert len(series) == MAX_SERIES_MINUTES
        assert bucket(series, MAX_SERIES_MINUTES - 1) == (NOON + 60 * (MAX_SERIES_MINUTES - 1), 3, 4)


class TestTotals:
    def test_total_is_sum_of_channels(self):
        assert MinuteSeries(NOON, [3, 0], [2, 0]).totals().tolist() == [5, 0]

    def test_reference_peak_minute_total(self):
        series = top15_series()
        i = (parse_minute_utc("2001-07-27T14:50:00Z") - series.start_minute_s) // 60
        assert series.totals()[i] == 595001

    def test_sum_at_the_int64_bounds_is_kept(self):
        assert MinuteSeries(NOON, [2**63 - 2, -(2**62)], [1, -(2**62)]).totals().tolist() == [2**63 - 1, -(2**63)]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sum_past_int64_raises_naming_the_minute(self, sign):
        series = MinuteSeries(NOON, [1, sign * 2**62, sign * 2**62], [1, sign * (2**62 + 1), 0])
        stamp = format_minute_utc(NOON + 60)
        with pytest.raises(CountOverflow, match=f"announcements plus withdrawals of minute {stamp} pass int64"):
            series.totals()


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
        series = read_bucket_csv(io.BytesIO(text.encode()))
        assert len(series) == 1
        assert bucket(series, 0) == (996245400, 500000, 95001)

    def test_round_trips_through_write(self):
        text = top15_csv_text()
        series = read_bucket_csv(io.BytesIO(text.encode()))
        out = io.StringIO()
        write_bucket_csv(series, out)
        again = read_bucket_csv(io.BytesIO(out.getvalue().encode()))
        assert np.array_equal(series.announcements, again.announcements)
        assert np.array_equal(series.withdrawals, again.withdrawals)

    def test_interior_gap_is_zero_filled(self):
        text = (
            "minute_utc,announcements,withdrawals\n"
            "2001-07-05T17:14:00Z,10,1\n"
            "2001-07-05T17:17:00Z,20,2\n"
        )
        series = read_bucket_csv(io.BytesIO(text.encode()))
        assert len(series) == 4
        assert bucket(series, 1) == (parse_minute_utc("2001-07-05T17:15:00Z"), 0, 0)
        assert series.announcements[2] == 0

    def test_accepts_crlf(self):
        text = "minute_utc,announcements,withdrawals\r\n2001-07-27T14:50:00Z,1,2\r\n"
        assert len(read_bucket_csv(io.BytesIO(text.encode()))) == 1

    def test_rejects_wrong_header(self):
        with pytest.raises(BadHeader):
            read_bucket_csv(io.BytesIO(b"minute,announcements,withdrawals\n"))

    def test_rejects_sub_minute_timestamp(self):
        text = "minute_utc,announcements,withdrawals\n2001-07-27T14:50:30Z,1,2\n"
        with pytest.raises(BadTimestamp):
            read_bucket_csv(io.BytesIO(text.encode()))

    def test_rejects_negative_count(self):
        text = "minute_utc,announcements,withdrawals\n2001-07-27T14:50:00Z,-1,2\n"
        with pytest.raises(NegativeCount):
            read_bucket_csv(io.BytesIO(text.encode()))

    def test_rejects_equal_timestamps(self):
        text = (
            "minute_utc,announcements,withdrawals\n"
            "2001-07-27T14:50:00Z,1,2\n"
            "2001-07-27T14:50:00Z,3,4\n"
        )
        with pytest.raises(NonMonotonic):
            read_bucket_csv(io.BytesIO(text.encode()))

    def test_rejects_descending_timestamps(self):
        text = (
            "minute_utc,announcements,withdrawals\n"
            "2001-07-27T14:51:00Z,1,2\n"
            "2001-07-27T14:50:00Z,3,4\n"
        )
        with pytest.raises(NonMonotonic):
            read_bucket_csv(io.BytesIO(text.encode()))

    def test_rejects_malformed_count(self):
        text = "minute_utc,announcements,withdrawals\n2001-07-27T14:50:00Z,abc,2\n"
        with pytest.raises(BucketCsvError):
            read_bucket_csv(io.BytesIO(text.encode()))

    @pytest.mark.parametrize("count", [2**63, 99999999999999999999])
    def test_rejects_count_beyond_int64(self, count):
        text = (
            "minute_utc,announcements,withdrawals\n"
            "2001-07-27T14:50:00Z,1,2\n"
            f"2001-07-27T14:51:00Z,3,{count}\n"
        )
        with pytest.raises(BucketCsvError, match="line 3: withdrawals exceeds int64"):
            read_bucket_csv(io.BytesIO(text.encode()))

    @pytest.mark.parametrize("count", ["1_000", " +7 ", "+7", "\u0663", "", "1.0", "0x10", "-0", " 5"])
    def test_rejects_counts_that_are_not_ascii_digits(self, count):
        text = (
            "minute_utc,announcements,withdrawals\n"
            "2001-07-27T14:50:00Z,1,2\n"
            f"2001-07-27T14:51:00Z,{count},4\n"
        )
        with pytest.raises(BucketCsvError, match=f"line 3: announcements is not an integer: {re.escape(repr(count))}"):
            read_bucket_csv(io.BytesIO(text.encode()))

    def test_negative_count_keeps_its_message(self):
        text = "minute_utc,announcements,withdrawals\n2001-07-27T14:50:00Z,1,2\n2001-07-27T14:51:00Z,3,-5\n"
        with pytest.raises(NegativeCount, match="^line 3: negative withdrawals: -5$"):
            read_bucket_csv(io.BytesIO(text.encode()))

    def test_leading_zeros_are_digits(self):
        text = f"minute_utc,announcements,withdrawals\n2001-07-27T14:50:00Z,007,{'0' * 30}42\n"
        assert bucket(read_bucket_csv(io.BytesIO(text.encode())), 0) == (996245400, 7, 42)

    def test_accepts_int64_maximum(self):
        text = f"minute_utc,announcements,withdrawals\n2001-07-27T14:50:00Z,{2**63 - 1},0\n"
        assert read_bucket_csv(io.BytesIO(text.encode())).announcements.tolist() == [2**63 - 1]


class TestBucketCsvWriter:
    @staticmethod
    def written(series):
        out = io.StringIO()
        write_bucket_csv(series, out)
        return out.getvalue()

    @pytest.mark.parametrize(
        "n", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3]
    )
    def test_blocks_join_into_the_whole_series_rendering(self, n):
        rng = np.random.default_rng(n)
        series = MinuteSeries(NOON, rng.integers(0, 2**63 - 1, n), rng.integers(0, 10, n))
        columns = format_minutes_utc(series.minutes()), series.announcements.tolist(), series.withdrawals.tolist()
        rows = "".join(f"{stamp},{a},{w}\n" for stamp, a, w in zip(*columns))
        assert self.written(series) == BUCKET_CSV_HEADER + "\n" + rows

    def test_memory_peak_stays_well_below_the_output_size(self):
        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

        # a span with hardly any data, like an ingest over a long --from/--to range
        n = 2**20
        series, sink = MinuteSeries(NOON, np.zeros(n), np.zeros(n)), Sink()
        tracemalloc.start()
        try:
            write_bucket_csv(series, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size == len(BUCKET_CSV_HEADER) + 1 + n * len("2001-09-10T01:20:00Z,0,0\n")
        assert peak < sink.size / 4

    def test_series_past_year_9999_raises_before_writing(self):
        last_minute = parse_minute_utc("9999-12-31T23:59:00Z")
        out = io.StringIO()
        with pytest.raises(ValueError, match="outside the years 0001-9999"):
            write_bucket_csv(MinuteSeries(last_minute, np.zeros(2), np.zeros(2)), out)
        assert out.getvalue() == ""


class TestFillAndSlice:
    def test_header_only_csv_gives_empty_series(self):
        assert len(read_bucket_csv(io.BytesIO(b"minute_utc,announcements,withdrawals\n"))) == 0

    def test_slice_range_is_inclusive(self):
        series = MinuteSeries(NOON, [1, 2, 3, 4], [0, 0, 0, 0])
        part = slice_range(series, NOON + 60, NOON + 120)
        assert list(part.announcements) == [2, 3]

    def test_slice_range_outside_series_raises(self):
        series = MinuteSeries(NOON, [1, 2], [0, 0])
        with pytest.raises(InvalidRange):
            slice_range(series, NOON - 60, NOON)


class TestFirstBadLine:
    HEADER = "minute_utc,announcements,withdrawals\n"
    OK = "2001-07-27T14:50:00Z,1,2\n"

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            # a bad count on line 3 comes before a bad stamp and a short row below it
            (["2001-07-27T14:51:00Z,x,2", "2001-07-27T14:52:30Z,1,2", "2001-07-27T14:53:00Z,1"],
             BucketCsvError, "line 3: announcements is not an integer: 'x'"),
            # a short row on line 3 comes before a bad stamp on line 4
            (["2001-07-27T14:51:00Z,1", "2001-07-27T14:52:30Z,1,2"],
             BucketCsvError, "line 3: expected 3 fields, got 2"),
            # a bad stamp on line 3 comes before the out-of-order row on line 4
            (["2001-07-27T14:51:30Z,1,2", "2001-07-27T14:40:00Z,1,2"],
             BadTimestamp, "line 3: not a minute-aligned UTC timestamp: '2001-07-27T14:51:30Z'"),
            # within one row the stamp is checked before the counts
            (["2001-02-30T14:51:00Z,-1,x"], BadTimestamp, "line 3: invalid calendar timestamp"),
            (["2001-07-27T14:51:00Z,-1,x"], NegativeCount, "line 3: negative announcements: -1"),
            # the counts before the order
            (["2001-07-27T14:49:00Z,1,x"], BucketCsvError, "line 3: withdrawals is not an integer"),
            # blank lines count towards the line number
            (["", "2001-07-27T14:50:00Z,1,2", "2001-07-27T14:51:00Z,1,2,3"],
             NonMonotonic, "line 4: timestamp 2001-07-27T14:50:00Z not after the previous row"),
        ],
    )
    def test_bucket_reader_names_the_first_bad_row(self, rows, error, message):
        text = self.HEADER + self.OK + "\n".join(rows) + "\n"
        with pytest.raises(error, match=re.escape(message)) as raised:
            read_bucket_csv(io.BytesIO(text.encode()))
        assert type(raised.value) is error
