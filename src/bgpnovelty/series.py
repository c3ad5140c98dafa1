"""Gapless per-minute series of announcement/withdrawal counts.

The canonical time axis is epoch seconds aligned to minute boundaries
(multiples of 60, UTC). Minutes with no data are zero-filled everywhere,
so downstream window extraction never sees a hole; a collector outage
simply shows up as a run of zero buckets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MINUTE = 60

# Longest series a reader or bucketize builds, about 8 years: zero-filling makes memory follow
# the time span, not the rows, and at this cap the two int64 count columns take 64 MiB.
MAX_SERIES_MINUTES = 2**22

BUCKET_CSV_HEADER = "minute_utc,announcements,withdrawals"

CSV_BLOCK_ROWS = 2**14  # rows a bucket-CSV write renders at once


class BucketCsvError(ValueError):
    """Base class for bucket-CSV validation failures."""


class BadHeader(BucketCsvError):
    pass


class BadTimestamp(BucketCsvError):
    pass


class NegativeCount(BucketCsvError):
    pass


class NonMonotonic(BucketCsvError):
    pass


class InvalidRange(ValueError):
    pass


class CountOverflow(ValueError):
    """A minute's summed count does not fit in int64."""


def parse_minutes_utc(stamps: Sequence[str]) -> np.ndarray:
    """Parse ``YYYY-MM-DDTHH:MM:00Z`` stamps into minute-aligned epoch seconds.

    Stamps are 20 ASCII characters with the seconds field literally ``00``
    and a year from 0001 to 9999. Raises BadTimestamp naming the first bad one.
    """
    encoded = [str(stamp).encode("utf-8", "surrogatepass") for stamp in stamps]
    bounds = np.cumsum([0, *map(len, encoded)])
    buf = np.frombuffer(b"".join(encoded) + bytes(_STAMP_LEN), np.uint8)
    minutes, shaped, on_calendar = _stamp_column(buf, bounds[:-1], bounds[1:])
    bad = np.flatnonzero(~(shaped & on_calendar))
    if bad.size:
        raise _stamp_error(shaped[bad[0]], stamps[bad[0]])
    return minutes


def parse_minute_utc(text: str) -> int:
    """One stamp through :func:`parse_minutes_utc`."""
    return int(parse_minutes_utc([text])[0])


def format_minutes_utc(minutes: Sequence[int] | np.ndarray) -> list[str]:
    """Render epoch seconds as ``YYYY-MM-DDTHH:MM:00Z``, dropping any seconds.

    Raises ValueError outside the years 0001-9999, which the parser rejects.
    """
    minutes = np.asarray(minutes, dtype=np.int64)
    outside = (minutes < _FIRST_SECOND) | (minutes > _LAST_SECOND)
    if outside.any():
        raise ValueError(f"epoch second {minutes[np.argmax(outside)]} is outside the years 0001-9999")
    rows = np.empty((minutes.size, _STAMP_LEN + 1), np.uint8)  # one stamp and its LF per row
    rows[:, :16] = (minutes // MINUTE).astype("datetime64[m]").astype("S16")[:, None].view(np.uint8)  # to the minute
    rows[:, 16:] = np.frombuffer(b":00Z\n", np.uint8)
    return rows.tobytes().decode("ascii").splitlines()


def format_minute_utc(minute_start_s: int) -> str:
    """One minute through :func:`format_minutes_utc`."""
    return format_minutes_utc([minute_start_s])[0]


_LF, _CR, _COMMA, _ZERO = b"\n\r,0"
_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z", np.uint8)
_STAMP_LEN = _STAMP.size
_STAMP_RANGE = np.frombuffer(b"9999-99-99T99:99:00Z", np.uint8) - _STAMP  # how far each byte may exceed _STAMP
_STAMP_FIELDS = ((0, 4), (5, 2), (8, 2), (11, 2), (14, 2))  # (first byte, digits) of year, month, day, hour, minute
_FIRST_SECOND, _LAST_SECOND = -62135596800, 253402300799  # 0001-01-01T00:00:00Z, 9999-12-31T23:59:59Z
_COUNT_DIGITS = len(str(2**63 - 1))  # a count of more significant digits exceeds int64


def _stamp_column(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Epoch seconds of the stamps ``buf[starts[i]:ends[i]]``, which are stamp-shaped, which are calendar dates.

    ``buf`` is uint8 and holds at least 20 bytes from every start on. The
    seconds hold only where a stamp is both.
    """
    # (20, n): row j holds byte j of every stamp less byte j of the pattern, wrapping below zero
    digits = sliding_window_view(buf, _STAMP_LEN)[starts].T - _STAMP[:, None]
    shaped = (ends - starts == _STAMP_LEN) & (digits <= _STAMP_RANGE[:, None]).all(axis=0)
    year, month, day, hour, minute = (_decimal(digits[lo : lo + width]) for lo, width in _STAMP_FIELDS)
    month_start = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    days = month_start.astype("datetime64[D]").view(np.int64)  # since 1970-01-01
    month_days = (month_start + 1).astype("datetime64[D]").view(np.int64) - days
    on_calendar = (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    on_calendar &= (hour < 24) & (minute < 60)
    return 86400 * (days + day - 1) + 3600 * hour + 60 * minute, shaped, on_calendar


def _decimal(digits: np.ndarray, dtype: type = np.int64) -> np.ndarray:
    """The numbers whose decimal digits are the rows of ``digits``, most significant first."""
    value = np.zeros(digits.shape[1], dtype)
    for row in digits:
        value = 10 * value + row
    return value


def _stamp_error(shaped: bool, text: str) -> BadTimestamp:
    return BadTimestamp(f"{'invalid calendar' if shaped else 'not a minute-aligned UTC'} timestamp: {text!r}")


@dataclass(frozen=True)
class MinuteSeries:
    """Consecutive minute buckets with no gaps.

    Bucket ``i`` covers ``[start_minute_s + 60*i, start_minute_s + 60*(i+1))``.
    Counts are held as parallel int64 arrays; :meth:`minutes` gives the
    matching int64 minute axis.
    """

    start_minute_s: int
    announcements: np.ndarray = field(repr=False)
    withdrawals: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.start_minute_s % MINUTE != 0:
            raise InvalidRange(f"series start {self.start_minute_s} not minute-aligned")
        ann = np.asarray(self.announcements, dtype=np.int64)
        wd = np.asarray(self.withdrawals, dtype=np.int64)
        if ann.ndim != 1 or wd.ndim != 1 or ann.size != wd.size:
            raise ValueError("announcement/withdrawal arrays must be 1-D and equally long")
        object.__setattr__(self, "announcements", ann)
        object.__setattr__(self, "withdrawals", wd)

    def __len__(self) -> int:
        return int(self.announcements.size)

    @property
    def end_minute_s(self) -> int:
        """Start of the last bucket; undefined for an empty series."""
        return self.start_minute_s + MINUTE * (len(self) - 1)

    def minute_at(self, index: int) -> int:
        return self.start_minute_s + MINUTE * index

    def minutes(self) -> np.ndarray:
        """Start of every bucket as int64 epoch seconds."""
        return self.start_minute_s + MINUTE * np.arange(len(self), dtype=np.int64)

    def totals(self) -> np.ndarray:
        return self.announcements + self.withdrawals


def bucketize(records: np.ndarray, start_minute_s: int, end_minute_s: int) -> MinuteSeries:
    """Sum ``(timestamp_s, announced, withdrawn)`` rows into one-minute buckets.

    ``records`` is an ``(n, 3)`` integer array, as ``mrt.parse_mrt_stream``
    returns; the range is inclusive and at most ``MAX_SERIES_MINUTES`` long.
    Rows need not be sorted; rows outside the range are dropped; minutes
    with no rows hold zeros. Sums are exact: a minute whose sum leaves int64
    raises CountOverflow. The output always spans ``(end - start)/60 + 1``
    buckets regardless of input sparsity.
    """
    _check_range(start_minute_s, end_minute_s)
    records = np.asarray(records, dtype=np.int64)
    if records.ndim != 2 or records.shape[1] != 3:
        raise ValueError(f"records must be an (n, 3) array, got shape {records.shape}")
    n = (end_minute_s - start_minute_s) // MINUTE + 1
    index = (records[:, 0] - start_minute_s) // MINUTE
    index[(index < 0) | (index >= n)] = n  # rows outside the range go to a spare bucket, dropped below
    counts = records[:, 1], records[:, 2]
    # Summing the high and low 32-bit halves apart cannot wrap below 2**31 rows a minute.
    halves = np.zeros((4, n + 1), dtype=np.int64)
    for total, part in zip(halves, [*(c >> 32 for c in counts), *(c & 0xFFFFFFFF for c in counts)]):
        np.add.at(total, index, part)
    sums, low = halves[:2, :n], halves[2:, :n]
    sums += low >> 32
    over = (sums < -(2**31)) | (sums >= 2**31)
    if over.any():
        minute, channel = np.argwhere(over.T)[0]
        stamp = format_minute_utc(start_minute_s + MINUTE * int(minute))
        raise CountOverflow(f"{('announcements', 'withdrawals')[channel]} of minute {stamp} sum past int64")
    sums <<= 32
    sums |= low & 0xFFFFFFFF
    return MinuteSeries(start_minute_s, sums[0].copy(), sums[1].copy())  # views would keep all four rows


def slice_range(series: MinuteSeries, start_minute_s: int, end_minute_s: int) -> MinuteSeries:
    """Inclusive sub-series; raises InvalidRange when not fully covered."""
    _check_range(start_minute_s, end_minute_s)
    if len(series) == 0 or start_minute_s < series.start_minute_s or end_minute_s > series.end_minute_s:
        raise InvalidRange(
            f"range {format_minute_utc(start_minute_s)}..{format_minute_utc(end_minute_s)} "
            "not covered by the series"
        )
    lo = (start_minute_s - series.start_minute_s) // MINUTE
    hi = (end_minute_s - series.start_minute_s) // MINUTE + 1
    return MinuteSeries(
        start_minute_s,
        series.announcements[lo:hi].copy(),
        series.withdrawals[lo:hi].copy(),
    )


def _check_range(start_minute_s: int, end_minute_s: int) -> None:
    """Raise InvalidRange unless the inclusive range is minute-aligned, ordered and not too long."""
    if start_minute_s % MINUTE or end_minute_s % MINUTE:
        raise InvalidRange("range bounds must be minute-aligned epoch seconds")
    if end_minute_s < start_minute_s:
        raise InvalidRange(f"range end {end_minute_s} before start {start_minute_s}")
    if (end_minute_s - start_minute_s) // MINUTE >= MAX_SERIES_MINUTES:
        minutes = (end_minute_s - start_minute_s) // MINUTE + 1
        raise InvalidRange(f"range of {minutes} minutes exceeds the {MAX_SERIES_MINUTES}-minute series limit")


def top_n(series: MinuteSeries, n: int) -> list[tuple[int, int]]:
    """The ``n`` largest per-minute totals as (minute_start_s, total) pairs.

    Descending by total, ties broken by earlier minute; ``n`` beyond the
    series length returns the full ranking.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    totals = series.totals()
    order = np.argsort(-totals, kind="stable")[:n]
    return list(zip(series.minutes()[order].tolist(), totals[order].tolist()))


def read_bucket_csv(data: bytes) -> MinuteSeries:
    """Read the bucket CSV format into a gapless series.

    The first line must be exactly ``minute_utc,announcements,withdrawals``;
    rows carry a ``YYYY-MM-DDTHH:MM:00Z`` timestamp and two counts of ASCII
    decimal digits, strictly ascending in time and less than
    ``MAX_SERIES_MINUTES`` minutes after the first row. Lines are split as
    :func:`csv_rows` says. Interior gaps between rows are zero-filled. An
    input without data rows gives an empty series starting at epoch 0. An
    error names the first bad line.
    """
    rows = csv_rows(data, 3, BucketCsvError)
    if rows.header is None:
        raise BadHeader("empty input; expected header line")
    if rows.header != BUCKET_CSV_HEADER:
        raise BadHeader(f"expected header {BUCKET_CSV_HEADER!r}, got {rows.header!r}")
    minutes, stamp_check = rows.minutes()
    announcements, announcement_check = rows.counts(1, "announcements")
    withdrawals, withdrawal_check = rows.counts(2, "withdrawals")
    first_row_fault(rows.line_nos, [
        stamp_check,
        announcement_check,
        withdrawal_check,
        (np.diff(minutes, prepend=minutes[:1] - 1) <= 0,
         lambda i: NonMonotonic(f"timestamp {rows.text(0, i)} not after the previous row")),
        ((minutes - minutes[:1]) // MINUTE >= MAX_SERIES_MINUTES,
         lambda i: BucketCsvError(f"timestamp {rows.text(0, i)} exceeds the {MAX_SERIES_MINUTES}-minute series limit")),
    ], rows.misfit)
    start = int(minutes[0]) if len(minutes) else 0
    index = (minutes - start) // MINUTE
    counts = np.zeros((2, int(index[-1]) + 1 if len(index) else 0), dtype=np.int64)
    counts[0, index] = announcements
    counts[1, index] = withdrawals
    return MinuteSeries(start, counts[0], counts[1])


def write_bucket_csv(series: MinuteSeries, out: TextIO) -> None:
    """Write a series to a text stream in the bucket CSV format (LF line endings).

    Rows are rendered and written ``CSV_BLOCK_ROWS`` at a time, so memory
    follows the block, not the series. A series reaching outside the years
    0001-9999 raises ValueError before anything is written.
    """
    if len(series):
        format_minutes_utc([series.start_minute_s, series.end_minute_s])
    out.write(BUCKET_CSV_HEADER + "\n")
    for lo in range(0, len(series), CSV_BLOCK_ROWS):
        announcements = series.announcements[lo : lo + CSV_BLOCK_ROWS]
        withdrawals = series.withdrawals[lo : lo + CSV_BLOCK_ROWS]
        stamps = format_minutes_utc(series.minute_at(lo) + MINUTE * np.arange(announcements.size))
        out.write(_csv_rows(stamps, map(str, announcements.tolist()), map(str, withdrawals.tolist())))


def csv_text(header: str, *columns) -> str:
    """The header line, then :func:`_csv_rows` of the columns."""
    return header + "\n" + _csv_rows(*columns)


def _csv_rows(*columns) -> str:
    """Row ``i`` joins item ``i`` of the equally long string columns with commas; every row ends in LF."""
    return "\n".join([*map(",".join, zip(*columns, strict=True)), ""])


@dataclass(frozen=True)
class CsvRows:
    """The header and the data rows of a CSV file as byte spans, as :func:`csv_rows` splits them."""

    header: str | None  # None for a file without lines
    padded: bytes  # the file's bytes with 20 zero bytes on either side
    buf: np.ndarray  # the padded bytes as uint8
    starts: np.ndarray  # (width, rows): field j of row i is buf[starts[j, i]:ends[j, i]]
    ends: np.ndarray
    line_nos: np.ndarray
    misfit: ValueError | None  # the first row without the expected fields, where the rows stop

    def text(self, column: int, row: int) -> str:
        return self.padded[self.starts[column, row] : self.ends[column, row]].decode()

    def fields(self, column: int) -> list[bytes]:
        """Field ``column`` of every row."""
        return [self.padded[lo:hi] for lo, hi in zip(self.starts[column].tolist(), self.ends[column].tolist())]

    def minutes(self) -> tuple[np.ndarray, tuple]:
        """Epoch seconds of the stamps in column 0, and their ``(bad, error)`` check for :func:`first_row_fault`."""
        seconds, shaped, on_calendar = _stamp_column(self.buf, self.starts[0], self.ends[0])
        return seconds, (~(shaped & on_calendar), lambda i: _stamp_error(shaped[i], self.text(0, i)))

    def counts(self, column: int, name: str) -> tuple[np.ndarray, tuple]:
        """int64 counts of a column, and its check: a count that is not ASCII digits or exceeds int64."""
        starts, ends = self.starts[column], self.ends[column]
        lengths = ends - starts
        width = min(int(lengths.max(initial=0)), _COUNT_DIGITS)
        # (width, rows): the last bytes of each count, zeros before its start; a non-digit reads above 9
        window = sliding_window_view(self.buf, width)[ends - width].T
        digits = np.where(np.arange(width)[:, None] >= width - lengths, window - _ZERO, 0)
        value = _decimal(digits, np.uint64)
        bad = (lengths == 0) | (digits > 9).any(axis=0) | (value > 2**63 - 1)
        long = np.flatnonzero(lengths > _COUNT_DIGITS)
        if long.size:  # everything before the last 19 digits must be zeros
            sizes = lengths[long] - _COUNT_DIGITS
            firsts = np.cumsum(sizes) - sizes
            at = np.repeat(starts[long] - firsts, sizes) + np.arange(sizes.sum())
            bad[long] |= ~np.logical_and.reduceat(self.buf[at] == _ZERO, firsts)
        return value.astype(np.int64), (bad, lambda i: _count_error(name, self.text(column, i)))


def csv_rows(data: bytes, width: int, error: type[ValueError]) -> CsvRows:
    """Split CSV bytes into lines and the data rows into ``width`` fields.

    Lines end at LF, or at the end of the data; a CR just before an LF is
    dropped. Blank lines are skipped but counted in line numbers. The rows
    stop before the first one without ``width`` fields. Data that is not
    UTF-8 raises ``error`` naming the line of the first bad byte.
    """
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise error(f"line {line}: not UTF-8 text ({exc.reason})") from None
    pad = _STAMP_LEN  # fixed-width reads near either end of the data stay in the buffer
    padded = bytes(pad) + data + bytes(pad)
    buf = np.frombuffer(padded, np.uint8)
    text = buf[pad:-pad]
    lf = np.flatnonzero(text == _LF) + pad
    ends = lf if data[-1:] in (b"", b"\n") else np.append(lf, pad + len(data))
    starts = np.concatenate(([pad], ends[:-1] + 1))[: ends.size]
    ends = ends - ((ends > starts) & (ends < pad + len(data)) & (buf[ends - 1] == _CR))
    commas = np.flatnonzero(text == _COMMA) + pad
    per_line = np.bincount(np.searchsorted(lf, commas), minlength=ends.size)
    line_nos = np.flatnonzero(ends[1:] > starts[1:]) + 2
    fields = per_line[line_nos - 1] + 1
    misfits = np.flatnonzero(fields != width)
    misfit = None
    if misfits.size:
        cut = misfits[0]
        misfit = error(f"line {line_nos[cut]}: expected {width} fields, got {fields[cut]}")
        line_nos = line_nos[:cut]
    header_commas = int(per_line[:1].sum())
    row_commas = commas[header_commas : header_commas + (width - 1) * line_nos.size].reshape(-1, width - 1).T
    return CsvRows(
        padded[starts[0] : ends[0]].decode() if ends.size else None,
        padded,
        buf,
        np.vstack([starts[line_nos - 1], row_commas + 1]),
        np.vstack([row_commas, ends[line_nos - 1]]),
        line_nos,
        misfit,
    )


def first_fault(checks) -> tuple[int, Exception] | None:
    """The earliest row any check flags and the exception of its first failing check, or None.

    ``checks`` pairs a boolean mask over the rows with a function from a row
    index to the exception; a row's checks apply in the order given.
    """
    flags = np.array([mask for mask, _ in checks])  # (checks, rows)
    rows = np.flatnonzero(flags.any(axis=0))
    return (int(rows[0]), checks[int(np.argmax(flags[:, rows[0]]))][1](rows[0])) if rows.size else None


def first_row_fault(line_nos: np.ndarray, checks, misfit: ValueError | None) -> None:
    """Raise :func:`first_fault`'s exception prefixed with its line number, else ``misfit`` if any."""
    fault = first_fault(checks)
    if fault:
        row, exc = fault
        raise type(exc)(f"line {line_nos[row]}: {exc}")
    if misfit:
        raise misfit


def _count_error(name: str, text: str) -> BucketCsvError:
    digits = text.removeprefix("-")
    if digits != text and digits.isascii() and digits.isdigit() and digits.strip("0"):
        return NegativeCount(f"negative {name}: -{digits.lstrip('0')}")
    if text.isascii() and text.isdigit():
        return BucketCsvError(f"{name} exceeds int64: {text!r}")
    return BucketCsvError(f"{name} is not an integer: {text!r}")
