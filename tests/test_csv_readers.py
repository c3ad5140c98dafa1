"""The byte-level bucket and novelty CSV readers against the string-at-a-time reference in csvref."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpnovelty.detector import NOVELTY_CSV_HEADER, read_novelty_csv
from bgpnovelty.series import BUCKET_CSV_HEADER, BucketCsvError, format_minutes_utc, read_bucket_csv

from csvref import reference_bucket_csv, reference_novelty_csv

_FIRST_MINUTE = -62135596800 // 60  # 0001-01-01T00:00Z
_LAST_MINUTE = 253402300740 // 60  # 9999-12-31T23:59Z


def bucket_outcome(read, data):
    """The series' start and counts, or the error's class and message."""
    try:
        series = read(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return series.start_minute_s, series.announcements.tolist(), series.withdrawals.tolist()


def novelty_outcome(read, data):
    """The minutes and the values' exact bytes, or the error's class and message."""
    try:
        minutes, values = read(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return minutes.dtype, minutes.tolist(), values.dtype, values.tobytes()


READERS = {
    "bucket": (read_bucket_csv, reference_bucket_csv, bucket_outcome),
    "novelty": (read_novelty_csv, reference_novelty_csv, novelty_outcome),
}

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
        text = data.draw(csv_files(kind))
        assert outcome(read, text) == outcome(reference, text)

    @kinds
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_files_cut_at_any_byte(self, kind, data):
        read, reference, outcome = READERS[kind]
        text = data.draw(csv_files(kind))
        cut = text[: data.draw(st.integers(0, len(text)))]
        assert outcome(read, cut) == outcome(reference, cut)

    @kinds
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_files_with_one_byte_changed(self, kind, data):
        read, reference, outcome = READERS[kind]
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
            read_bucket_csv(self.HEADER + b"\n2001-07-27T14:50:00Z,1,2\r3\n")

    def test_a_cr_at_the_end_of_the_data_is_not_dropped(self):
        with pytest.raises(BucketCsvError, match=r"^line 2: withdrawals is not an integer: '2\\r'$"):
            read_bucket_csv(self.HEADER + b"\r\n2001-07-27T14:50:00Z,1,2\r")

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_other_line_separators_do_not_end_a_line(self, separator):
        data = (BUCKET_CSV_HEADER + "\n2001-07-27T14:50:00Z,1,2" + separator + "2001-07-27T14:51:00Z,3,4\n").encode()
        with pytest.raises(BucketCsvError, match="^line 2: expected 3 fields, got 5$"):
            read_bucket_csv(data)

    @pytest.mark.parametrize("read", [read_bucket_csv, read_novelty_csv])
    def test_bytes_that_are_not_utf8_name_their_line(self, read):
        data = b"header\n\nrow\r\n\xffrow\n"
        with pytest.raises(ValueError, match=r"^line 4: not UTF-8 text \(invalid start byte\)$"):
            read(data)

    def test_an_error_in_a_count_past_the_int_digit_limit_is_named(self):
        zeros = b"0" * 5000
        row = b"\n2001-07-27T14:50:00Z," + zeros + b"7,"
        with pytest.raises(BucketCsvError, match="^line 2: negative withdrawals: -12$"):
            read_bucket_csv(self.HEADER + row + b"-" + zeros + b"12\n")
        assert read_bucket_csv(self.HEADER + row + zeros + b"12\n").withdrawals.tolist() == [12]
