"""Gapless per-minute series of announcement/withdrawal counts.

The canonical time axis is epoch seconds aligned to minute boundaries
(multiples of 60, UTC). Minutes with no data are zero-filled everywhere,
so downstream window extraction never sees a hole; a collector outage
simply shows up as a run of zero buckets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

MINUTE = 60

# Longest series a reader or bucketize builds, about 8 years: zero-filling makes memory follow
# the time span, not the rows, and at this cap the two int64 count columns take 64 MiB.
MAX_SERIES_MINUTES = 2**22

BUCKET_CSV_HEADER = "minute_utc,announcements,withdrawals"


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
    minutes, (bad, error) = minutes_column(stamps)
    if bad.any():
        raise error(int(np.argmax(bad)))
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
    return [text + ":00Z" for text in np.datetime_as_string(minutes.astype("datetime64[s]"), unit="m").tolist()]


def format_minute_utc(minute_start_s: int) -> str:
    """One minute through :func:`format_minutes_utc`."""
    return format_minutes_utc([minute_start_s])[0]


_STAMP = np.array([ord(c) - ord("0") for c in "dddd-dd-ddTdd:dd:00Z"])  # "d": any digit
_DIGIT = _STAMP == ord("d") - ord("0")
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_FIRST_SECOND, _LAST_SECOND = -62135596800, 253402300799  # 0001-01-01T00:00:00Z, 9999-12-31T23:59:59Z


def minutes_column(stamps: Sequence[str]) -> tuple[np.ndarray, tuple]:
    """Epoch seconds of each stamp, and the ``(bad, error)`` check of :func:`first_row_fault`.

    Seconds hold only where ``bad`` is False; ``error(i)`` is stamp ``i``'s BadTimestamp.
    """
    n = len(stamps)
    lengths = np.fromiter(map(len, stamps), np.int64, n)
    digits = np.array(stamps, dtype="U20").view(np.int32).reshape(n, 20)  # code points
    digits -= ord("0")
    shape_ok = (lengths == 20) & np.where(_DIGIT, (digits >= 0) & (digits < 10), digits == _STAMP).all(axis=1)
    year, month, day, hour, minute = (
        digits[:, lo : lo + width] @ 10 ** np.arange(width - 1, -1, -1)
        for lo, width in ((0, 4), (5, 2), (8, 2), (11, 2), (14, 2))
    )
    month_ok = (month >= 1) & (month <= 12)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _DAYS_IN_MONTH[np.where(month_ok, month, 0)] + ((month == 2) & leap)
    calendar_ok = (year >= 1) & month_ok & (day >= 1) & (day <= month_days) & (hour < 24) & (minute < 60)
    # days since 1970-01-01 by the proleptic Gregorian days-from-civil formula
    era, year_of_era = np.divmod(year - (month <= 2), 400)
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = 146097 * era + 365 * year_of_era + year_of_era // 4 - year_of_era // 100 + day_of_year - 719468

    def error(i: int) -> BadTimestamp:
        kind = "invalid calendar" if shape_ok[i] else "not a minute-aligned UTC"
        return BadTimestamp(f"{kind} timestamp: {stamps[i]!r}")

    return 86400 * days + 3600 * hour + 60 * minute, (~(shape_ok & calendar_ok), error)


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


def read_bucket_csv(text: str) -> MinuteSeries:
    """Read the bucket CSV format into a gapless series.

    The first line must be exactly ``minute_utc,announcements,withdrawals``;
    rows carry a ``YYYY-MM-DDTHH:MM:00Z`` timestamp and two counts of ASCII
    decimal digits, strictly ascending in time and less than
    ``MAX_SERIES_MINUTES`` minutes after the first row. LF and CRLF inputs
    are both accepted. Interior gaps between rows are zero-filled. An input
    without data rows gives an empty series starting at epoch 0. An error
    names the first bad line.
    """
    header, (stamps, announcements, withdrawals), line_nos, misfit = csv_columns(text, 3, BucketCsvError)
    if header is None:
        raise BadHeader("empty input; expected header line")
    if header != BUCKET_CSV_HEADER:
        raise BadHeader(f"expected header {BUCKET_CSV_HEADER!r}, got {header!r}")
    minutes, stamp_check = minutes_column(stamps)
    first_row_fault(line_nos, [
        stamp_check,
        (_count_faults(announcements), lambda i: _count_error("announcements", announcements[i])),
        (_count_faults(withdrawals), lambda i: _count_error("withdrawals", withdrawals[i])),
        (np.diff(minutes, prepend=minutes[:1] - 1) <= 0,
         lambda i: NonMonotonic(f"timestamp {stamps[i]} not after the previous row")),
        ((minutes - minutes[:1]) // MINUTE >= MAX_SERIES_MINUTES,
         lambda i: BucketCsvError(f"timestamp {stamps[i]} exceeds the {MAX_SERIES_MINUTES}-minute series limit")),
    ], misfit)
    start = int(minutes[0]) if len(minutes) else 0
    index = (minutes - start) // MINUTE
    counts = np.zeros((2, int(index[-1]) + 1 if len(index) else 0), dtype=np.int64)
    counts[:, index] = np.array([announcements, withdrawals], dtype=np.int64)
    return MinuteSeries(start, counts[0], counts[1])


def write_bucket_csv(series: MinuteSeries) -> str:
    """Render a series in the bucket CSV format (LF line endings)."""
    counts = map(str, series.announcements.tolist()), map(str, series.withdrawals.tolist())
    return csv_text(BUCKET_CSV_HEADER, format_minutes_utc(series.minutes()), *counts)


def csv_text(header: str, *columns) -> str:
    """The header, then row ``i`` joining item ``i`` of the equally long string columns; every line ends in LF."""
    return "\n".join([header, *map(",".join, zip(*columns, strict=True))]) + "\n"


def csv_columns(text: str, width: int, error: type[ValueError]) -> tuple:
    """Header (None for no lines), the data rows in ``width`` columns, their line numbers.

    Blank lines are skipped. The rows stop before the first one without
    ``width`` fields, for which the last item is an ``error``; it is None when
    every row fits.
    """
    lines = text.splitlines()
    header, rows = (lines[0], lines[1:]) if lines else (None, [])
    line_nos = np.arange(2, len(rows) + 2)[np.fromiter(map(bool, rows), bool, len(rows))]
    rows = list(filter(None, rows))
    commas = np.fromiter(map(str.count, rows, repeat(",")), np.int64, len(rows))
    cut = int(np.argmax(commas != width - 1)) if (commas != width - 1).any() else len(rows)
    misfit = None
    if cut < len(rows):
        misfit = error(f"line {line_nos[cut]}: expected {width} fields, got {commas[cut] + 1}")
    fields = ",".join(rows[:cut]).split(",") if cut else []
    return header, [fields[i::width] for i in range(width)], line_nos[:cut], misfit


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


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _count_faults(texts: list[str]) -> np.ndarray:
    """Where a count is not ASCII decimal digits or does not fit in int64."""
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    if _is_digits("".join(texts)) and lengths.all():
        bad = np.zeros(len(texts), dtype=bool)
    else:  # find the bad ones
        bad = ~np.fromiter(map(_is_digits, texts), bool, len(texts))
    for i in np.flatnonzero(~bad & (lengths > 18)):  # only these can reach 2**63
        bad[i] = int(texts[i]) >= 2**63
    return bad


def _count_error(name: str, text: str) -> BucketCsvError:
    if text[:1] == "-" and _is_digits(text[1:]) and int(text[1:]) > 0:
        return NegativeCount(f"negative {name}: {int(text)}")
    if _is_digits(text):
        return BucketCsvError(f"{name} exceeds int64: {text!r}")
    return BucketCsvError(f"{name} is not an integer: {text!r}")
