"""String-at-a-time bucket and novelty CSV readers, the reference for the byte-level readers' tests.

Every line and field is a Python ``str``; stamps are checked as a ``U20``
code-point matrix, counts with ``str.isdigit`` and ``int``, novelty values
with ``float`` on each field. Lines are split by the byte readers' rules:
the data must be UTF-8, lines end at LF, and a CR just before an LF is
dropped. ``bgpnovelty.series.read_bucket_csv`` and
``bgpnovelty.detector.read_novelty_csv`` must return the same arrays, or
raise the same error class with the same message, on every input.
"""

from __future__ import annotations

import operator

import numpy as np

from bgpnovelty.detector import NOVELTY_CSV_HEADER, NonFiniteValue
from bgpnovelty.series import (
    BUCKET_CSV_HEADER,
    MAX_SERIES_MINUTES,
    MINUTE,
    BadHeader,
    BadTimestamp,
    BucketCsvError,
    MinuteSeries,
    NegativeCount,
    NonMonotonic,
)

_STAMP = np.array([ord(c) - ord("0") for c in "dddd-dd-ddTdd:dd:00Z"])  # "d": any digit
_DIGIT = _STAMP == ord("d") - ord("0")
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def reference_bucket_csv(data: bytes) -> MinuteSeries:
    header, (stamps, announcements, withdrawals), line_nos, misfit = csv_columns(data, 3, BucketCsvError)
    if header is None:
        raise BadHeader("empty input; expected header line")
    if header != BUCKET_CSV_HEADER:
        raise BadHeader(f"expected header {BUCKET_CSV_HEADER!r}, got {header!r}")
    minutes, stamp_check = minutes_column(stamps)
    _first_fault(line_nos, [
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


def reference_novelty_csv(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    header, (stamps, texts), line_nos, misfit = csv_columns(data, 2, ValueError)
    if header != NOVELTY_CSV_HEADER:
        raise ValueError(f"expected header {NOVELTY_CSV_HEADER!r}")
    minutes, stamp_check = minutes_column(stamps)
    values, bad_value = _floats(texts)
    _first_fault(line_nos, [
        stamp_check,
        (np.arange(len(texts)) == bad_value[0], lambda i: ValueError(bad_value[1])),
        (~np.isfinite(values), lambda i: NonFiniteValue(f"novelty is not finite: {texts[i]!r}")),
    ], misfit)
    return minutes, values


def _first_fault(line_nos: np.ndarray, checks: list[tuple], misfit: ValueError | None) -> None:
    """Raise the first failing check of the first row that fails one, with its line number, else ``misfit``.

    Each check pairs a boolean list over the rows with a function from a row
    index to the exception; a row's checks apply in the order given.
    """
    for row, line_no in enumerate(line_nos.tolist()):
        for bad, error in checks:
            if bad[row]:
                exc = error(row)
                raise type(exc)(f"line {line_no}: {exc}")
    if misfit:
        raise misfit


def lines_of(data: bytes, error: type[ValueError]) -> list[str]:
    """The lines of UTF-8 data; an ``error`` names the line of the first byte that is not UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise error(f"line {line}: not UTF-8 text ({exc.reason})") from None
    *lines, last = text.split("\n")
    return [line.removesuffix("\r") for line in lines] + ([last] if last else [])


def csv_columns(data: bytes, width: int, error: type[ValueError]) -> tuple:
    """Header (None for no lines), the data rows in ``width`` columns, their line numbers.

    Blank lines are skipped. The rows stop before the first one without
    ``width`` fields, for which the last item is an ``error``; it is None when
    every row fits.
    """
    lines = lines_of(data, error)
    header, rows = (lines[0], lines[1:]) if lines else (None, [])
    line_nos = np.arange(2, len(rows) + 2)[np.fromiter(map(bool, rows), bool, len(rows))]
    rows = list(filter(None, rows))
    commas = np.fromiter((row.count(",") for row in rows), np.int64, len(rows))
    cut = int(np.argmax(commas != width - 1)) if (commas != width - 1).any() else len(rows)
    misfit = None
    if cut < len(rows):
        misfit = error(f"line {line_nos[cut]}: expected {width} fields, got {commas[cut] + 1}")
    fields = ",".join(rows[:cut]).split(",") if cut else []
    return header, [fields[i::width] for i in range(width)], line_nos[:cut], misfit


def minutes_column(stamps: list[str]) -> tuple[np.ndarray, tuple]:
    """Epoch seconds of each stamp, and the ``(bad, error)`` check of ``_first_fault``."""
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
    era, year_of_era = np.divmod(year - (month <= 2), 400)
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = 146097 * era + 365 * year_of_era + year_of_era // 4 - year_of_era // 100 + day_of_year - 719468

    def error(i: int) -> BadTimestamp:
        kind = "invalid calendar" if shape_ok[i] else "not a minute-aligned UTC"
        return BadTimestamp(f"{kind} timestamp: {stamps[i]!r}")

    return 86400 * days + 3600 * hour + 60 * minute, (~(shape_ok & calendar_ok), error)


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _count_faults(texts: list[str]) -> np.ndarray:
    """Where a count is not ASCII decimal digits or does not fit in int64."""
    bad = ~np.fromiter(map(_is_digits, texts), bool, len(texts))
    for i in np.flatnonzero(~bad):
        bad[i] = int(texts[i]) >= 2**63
    return bad


def _count_error(name: str, text: str) -> BucketCsvError:
    if text[:1] == "-" and _is_digits(text[1:]) and int(text[1:]) > 0:
        return NegativeCount(f"negative {name}: {int(text)}")
    if _is_digits(text):
        return BucketCsvError(f"{name} exceeds int64: {text!r}")
    return BucketCsvError(f"{name} is not an integer: {text!r}")


def _floats(texts: list[str]) -> tuple[np.ndarray, tuple[int, str]]:
    """``float()`` of each text, and the index (-1 for none) and error of the first that fails.

    The values from the failing text on are NaN.
    """
    rest = iter(texts)
    try:
        return np.fromiter(map(float, rest), np.float64, len(texts)), (-1, "")
    except ValueError as exc:
        bad = len(texts) - operator.length_hint(rest) - 1  # map stopped on the text it failed on
        values = np.full(len(texts), np.nan)
        values[:bad] = np.fromiter(map(float, texts[:bad]), np.float64, bad)
        return values, (bad, str(exc))
