"""The chunked bucket and novelty CSV readers against the whole-file, string-at-a-time reference in csvref."""

import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpnovelty import series
from bgpnovelty.detector import NOVELTY_CSV_HEADER, read_novelty_csv
from bgpnovelty.series import (
    BUCKET_CSV_HEADER,
    CSV_CHUNK_BYTES,
    MAX_SERIES_MINUTES,
    BucketCsvError,
    MinuteSeries,
    format_minutes_utc,
    read_bucket_csv,
    write_bucket_csv,
)

from csvref import reference_bucket_csv, reference_novelty_csv

_FIRST_MINUTE = -62135596800 // 60  # 0001-01-01T00:00Z
_LAST_MINUTE = 253402300740 // 60  # 9999-12-31T23:59Z


def bucket_outcome(read, data):
    """The series' start and counts, or the error's class and message."""
    try:
        buckets = read(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return buckets.start_minute_s, buckets.announcements.tolist(), buckets.withdrawals.tolist()


def novelty_outcome(read, data):
    """The minutes and the values' exact bytes, or the error's class and message."""
    try:
        minutes, values = read(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return minutes.dtype, minutes.tolist(), values.dtype, values.tobytes()


def in_chunks(read, chunk_bytes=CSV_CHUNK_BYTES):
    """``read`` applied to a file object over the data, read ``chunk_bytes`` at a time."""

    def read_data(data):
        with mock.patch.object(series, "CSV_CHUNK_BYTES", chunk_bytes):
            return read(io.BytesIO(data))

    return read_data


READERS = {
    "bucket": (read_bucket_csv, reference_bucket_csv, bucket_outcome),
    "novelty": (read_novelty_csv, reference_novelty_csv, novelty_outcome),
}
chunk_sizes = st.one_of(st.integers(1, 64), st.just(CSV_CHUNK_BYTES))

# Fields that break a row in one of the ways the readers tell apart.
BAD_FIELDS = [
    "", "x", "-5", "-0", "-007", "1.0", " 7", "+7", "1_000", "\u0663", "\u00e9", "9223372036854775808",
    "99999999999999999999", "000000000000000000000009223372036854775807", "nan", "inf", " 1_0.5 ", "\u0662",
    "2001-07-27T14:50:30Z", "2001-02-29T00:00:00Z", "2001-07-27T14:50:00Z", "\u06622001-07-27T14:50:00Z",
]

counts = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(2**63 - 2, 2**63 + 1).map(str),
    st.tuples(st.integers(1, 30), st.integers(0, 10**6) | st.integers(2**63 - 2, 2**63 + 1)).map(
        lambda z: "0" * z[0] + str(z[1])
    ),
)
novelties = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "1e-300", " 2.5 ", "1_0.5", "-0.0", "\u0662.5"]),
)


@st.composite
def csv_files(draw, kind, min_rows=0):
    """A header and rows of ascending stamps, some fields replaced by bad ones, in LF or CRLF with blank lines."""
    n = draw(st.integers(min_rows, 8))
    first = draw(st.integers(_FIRST_MINUTE, _LAST_MINUTE - 30 * n))
    minutes = 60 * (first + np.cumsum(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=np.int64))
    stamps = format_minutes_utc(minutes)
    if kind == "bucket":
        header = BUCKET_CSV_HEADER
        rows = [[stamp, draw(counts), draw(counts)] for stamp in stamps]
    else:
        header = NOVELTY_CSV_HEADER
        rows = [[stamp, draw(novelties)] for stamp in stamps]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):  # several bad rows at once
        row = rows[draw(st.integers(0, len(rows) - 1))]
        how = draw(st.sampled_from(["replace", "drop", "add"]))
        if how == "replace":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_FIELDS))
        elif how == "drop" and len(row) > 1:
            row.pop()
        else:
            row.append(draw(counts))
    lines = [header, *map(",".join, rows)]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from([newline, ""]))
    return (newline.join(lines) + end).encode()


kinds = pytest.mark.parametrize("kind", sorted(READERS))
GOOD_ROWS = {"bucket": ["2001-07-27T14:50:00Z", "1", "2"], "novelty": ["2001-07-27T14:50:00Z", "0.5"]}


class TestMatchesReference:
    @kinds
    @pytest.mark.parametrize("bad", BAD_FIELDS)
    def test_each_bad_field_in_each_column(self, kind, bad):
        read, reference, outcome = READERS[kind]
        read = in_chunks(read)
        header = BUCKET_CSV_HEADER if kind == "bucket" else NOVELTY_CSV_HEADER
        for column in range(len(GOOD_ROWS[kind])):
            row = list(GOOD_ROWS[kind])
            row[column] = bad
            text = f"{header}\n{','.join(GOOD_ROWS[kind]).replace(':50', ':49')}\n{','.join(row)}\n".encode()
            assert outcome(read, text) == outcome(reference, text)

    @kinds
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_built_files(self, kind, data):
        read, reference, outcome = READERS[kind]
        read = in_chunks(read, data.draw(chunk_sizes))
        text = data.draw(csv_files(kind))
        assert outcome(read, text) == outcome(reference, text)

    @kinds
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_files_cut_at_any_byte(self, kind, data):
        read, reference, outcome = READERS[kind]
        read = in_chunks(read, data.draw(chunk_sizes))
        text = data.draw(csv_files(kind))
        cut = text[: data.draw(st.integers(0, len(text)))]
        assert outcome(read, cut) == outcome(reference, cut)

    @kinds
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_files_with_one_byte_changed(self, kind, data):
        read, reference, outcome = READERS[kind]
        read = in_chunks(read, data.draw(chunk_sizes))
        text = data.draw(csv_files(kind, min_rows=1))
        first_row = min(text.index(b"\n") + 1, len(text) - 1)  # the header's LF when no byte follows it
        at = data.draw(st.one_of(st.integers(0, len(text) - 1), st.integers(first_row, len(text) - 1)))
        byte = data.draw(st.one_of(st.integers(0, 255), st.sampled_from(b"\n\r,-0:TZ\x0b\x1c\x85")))
        changed = text[:at] + bytes([byte]) + text[at + 1 :]
        assert outcome(read, changed) == outcome(reference, changed)


class TestDeclaredLineRules:
    HEADER = BUCKET_CSV_HEADER.encode()

    def test_a_lone_cr_does_not_end_a_line(self):
        with pytest.raises(BucketCsvError, match=r"^line 2: withdrawals is not an integer: '2\\r3'$"):
            read_bucket_csv(io.BytesIO(self.HEADER + b"\n2001-07-27T14:50:00Z,1,2\r3\n"))

    def test_a_cr_at_the_end_of_the_data_is_not_dropped(self):
        with pytest.raises(BucketCsvError, match=r"^line 2: withdrawals is not an integer: '2\\r'$"):
            read_bucket_csv(io.BytesIO(self.HEADER + b"\r\n2001-07-27T14:50:00Z,1,2\r"))

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_other_line_separators_do_not_end_a_line(self, separator):
        data = (BUCKET_CSV_HEADER + "\n2001-07-27T14:50:00Z,1,2" + separator + "2001-07-27T14:51:00Z,3,4\n").encode()
        with pytest.raises(BucketCsvError, match="^line 2: expected 3 fields, got 5$"):
            read_bucket_csv(io.BytesIO(data))

    @pytest.mark.parametrize("read", [read_bucket_csv, read_novelty_csv])
    def test_bytes_that_are_not_utf8_name_their_line(self, read):
        data = b"header\n\nrow\r\n\xffrow\n"
        with pytest.raises(ValueError, match=r"^line 4: not UTF-8 text \(invalid start byte\)$"):
            read(io.BytesIO(data))

    def test_an_error_in_a_count_past_the_int_digit_limit_is_named(self):
        zeros = b"0" * 5000
        row = b"\n2001-07-27T14:50:00Z," + zeros + b"7,"
        with pytest.raises(BucketCsvError, match="^line 2: negative withdrawals: -12$"):
            read_bucket_csv(io.BytesIO(self.HEADER + row + b"-" + zeros + b"12\n"))
        assert read_bucket_csv(io.BytesIO(self.HEADER + row + zeros + b"12\n")).withdrawals.tolist() == [12]


STAMPS = format_minutes_utc(60 * (16604180 + np.arange(6)))  # 2001-07-27T16:20Z on
FAR = format_minutes_utc([60 * (16604180 + MAX_SERIES_MINUTES)])[0]  # the series limit after STAMPS[0]


def lines(*rows, newline="\n", end="\n"):
    return (newline.join(rows) + end).encode()


BUCKET_ROWS = [f"{stamp},{i},{2 * i}" for i, stamp in enumerate(STAMPS)]
NOVELTY_ROWS = [f"{stamp},{i}.5" for i, stamp in enumerate(STAMPS)]
# (kind, file, a part of the reference's error message, or None where it reads the file): each is read at every
# chunk size from 1 byte to past its end
SWEPT_FILES = {
    "crlf_and_blank_lines": ("bucket", lines(BUCKET_CSV_HEADER, "", *BUCKET_ROWS[:3], "", "", *BUCKET_ROWS[3:],
                                             newline="\r\n", end="\r\n"), None),
    "no_final_lf": ("bucket", lines(BUCKET_CSV_HEADER, *BUCKET_ROWS, end=""), None),
    "cr_at_the_end_of_the_data": ("bucket", lines(BUCKET_CSV_HEADER, *BUCKET_ROWS, end="\r"), "line 7: withdrawals is not"),
    "header_only": ("bucket", lines(BUCKET_CSV_HEADER, newline="\r\n", end="\r\n"), None),
    "wrong_header": ("bucket", lines("minute_utc,announcements", *BUCKET_ROWS), "expected header"),
    "misfit_row": ("bucket", lines(BUCKET_CSV_HEADER, *BUCKET_ROWS[:3], STAMPS[3] + ",1", *BUCKET_ROWS[4:]),
                   "line 5: expected 3 fields"),
    "non_monotonic_minute": ("bucket", lines(BUCKET_CSV_HEADER, *BUCKET_ROWS[:3], BUCKET_ROWS[2], *BUCKET_ROWS[4:]),
                             "line 5: timestamp 2001-07-27T16:22:00Z not after"),
    "series_limit": ("bucket", lines(BUCKET_CSV_HEADER, *BUCKET_ROWS[:3], f"{FAR},1,1"), "line 5: timestamp 2009-07-18T09:24:00Z exceeds"),
    "bad_stamp_before_misfit": ("bucket", lines(BUCKET_CSV_HEADER, BUCKET_ROWS[0], "2001-07-27T14:21:30Z,1,1",
                                                "x", *BUCKET_ROWS[3:]), "line 3: not a minute-aligned"),
    "non_utf8_after_a_row_fault": ("bucket", lines(BUCKET_CSV_HEADER, *BUCKET_ROWS[:2], f"{STAMPS[2]},x,1",
                                                   *BUCKET_ROWS[3:5]) + b"\xff,1,1\n",
                                   "line 7: not UTF-8"),
    "non_utf8_after_a_misfit": ("novelty", lines(NOVELTY_CSV_HEADER, NOVELTY_ROWS[0], "a,b,c",
                                                 *NOVELTY_ROWS[2:]) + b"\xe2\x82", "line 8: not UTF-8"),
    "long_wrong_header_then_non_utf8": ("novelty", lines("h" * 200, *NOVELTY_ROWS) + b"\x80", "line 8: not UTF-8"),
    "novelty_crlf_and_blank_lines": ("novelty", lines(NOVELTY_CSV_HEADER, "", *NOVELTY_ROWS, "",
                                                      newline="\r\n", end="\r\n"), None),
    "non_finite_novelty": ("novelty", lines(NOVELTY_CSV_HEADER, *NOVELTY_ROWS[:4], f"{STAMPS[4]},nan"),
                           "line 6: novelty is not finite"),
    "bad_float_before_non_finite": ("novelty", lines(NOVELTY_CSV_HEADER, NOVELTY_ROWS[0], f"{STAMPS[1]},1_0.5x",
                                                     f"{STAMPS[2]},inf"), "line 3: could not convert"),
}


class TestAnyChunkSize:
    @pytest.mark.parametrize("name", sorted(SWEPT_FILES))
    def test_every_chunk_size_matches_the_whole_file_reference(self, name):
        kind, data, message = SWEPT_FILES[name]
        read, reference, outcome = READERS[kind]
        expected = outcome(reference, data)
        assert message in expected[1] if message else not isinstance(expected[0], type)
        for chunk_bytes in range(1, len(data) + 2):  # every boundary, before and after every fault
            assert outcome(in_chunks(read, chunk_bytes), data) == expected, chunk_bytes

    def test_memory_follows_the_chunk_not_the_file(self, tmp_path):
        n = 2**20
        path = tmp_path / "buckets.csv"
        with path.open("w", encoding="utf-8") as out:
            write_bucket_csv(MinuteSeries(0, np.arange(n), np.full(n, 7)), out)
        assert path.stat().st_size > 31_000_000
        tracemalloc.start()
        try:
            with path.open("rb") as data:
                buckets = read_bucket_csv(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20  # the 16 MiB series plus 20 bytes a row, not 8 times the file
        assert len(buckets) == n and buckets.announcements[-1] == n - 1 and buckets.withdrawals.sum() == 7 * n
