"""Gapless per-minute series of announcement/withdrawal counts.

The canonical time axis is epoch seconds aligned to minute boundaries
(multiples of 60, UTC). Minutes with no data are zero-filled everywhere,
so downstream window extraction never sees a hole; a collector outage
simply shows up as a run of zero buckets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable

import numpy as np

from .mrt import UpdateRecord

MINUTE = 60

BUCKET_CSV_HEADER = "minute_utc,announcements,withdrawals"

_MINUTE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):00Z$")


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


def parse_minute_utc(text: str) -> int:
    """Parse ``YYYY-MM-DDTHH:MM:00Z`` into minute-aligned epoch seconds.

    The seconds field must be literally ``00``: raises BadTimestamp for
    anything else, including otherwise valid ISO-8601 timestamps.
    """
    match = _MINUTE_RE.match(text)
    if not match:
        raise BadTimestamp(f"not a minute-aligned UTC timestamp: {text!r}")
    year, month, day, hour, minute = (int(g) for g in match.groups())
    try:
        moment = datetime(year, month, day, hour, minute, tzinfo=timezone.utc)
    except ValueError as exc:
        raise BadTimestamp(f"invalid calendar timestamp: {text!r}") from exc
    return int(moment.timestamp())


def format_minute_utc(minute_start_s: int) -> str:
    """Render minute-aligned epoch seconds as ``YYYY-MM-DDTHH:MM:00Z``."""
    moment = datetime.fromtimestamp(minute_start_s, tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:00Z")


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


def bucketize(
    records: Iterable[UpdateRecord],
    start_minute_s: int,
    end_minute_s: int,
) -> MinuteSeries:
    """Sum update records into one-minute buckets over an inclusive range.

    Records need not be sorted; records outside the range are dropped;
    minutes with no records hold zeros. The output always spans
    ``(end - start)/60 + 1`` buckets regardless of input sparsity.
    """
    if start_minute_s % MINUTE or end_minute_s % MINUTE:
        raise InvalidRange("range bounds must be minute-aligned epoch seconds")
    if end_minute_s < start_minute_s:
        raise InvalidRange(f"range end {end_minute_s} before start {start_minute_s}")
    n = (end_minute_s - start_minute_s) // MINUTE + 1
    announcements = np.zeros(n, dtype=np.int64)
    withdrawals = np.zeros(n, dtype=np.int64)
    for record in records:
        if start_minute_s <= record.timestamp_s < end_minute_s + MINUTE:
            i = (record.timestamp_s - start_minute_s) // MINUTE
            announcements[i] += record.announced
            withdrawals[i] += record.withdrawn
    return MinuteSeries(start_minute_s, announcements, withdrawals)


def slice_range(series: MinuteSeries, start_minute_s: int, end_minute_s: int) -> MinuteSeries:
    """Inclusive sub-series; raises InvalidRange when not fully covered."""
    if start_minute_s % MINUTE or end_minute_s % MINUTE:
        raise InvalidRange("range bounds must be minute-aligned epoch seconds")
    if end_minute_s < start_minute_s:
        raise InvalidRange(f"range end {end_minute_s} before start {start_minute_s}")
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


def read_bucket_csv(source: str | Iterable[str]) -> MinuteSeries:
    """Read the bucket CSV format into a gapless series.

    The first line must be exactly ``minute_utc,announcements,withdrawals``;
    rows carry a ``YYYY-MM-DDTHH:MM:00Z`` timestamp and two non-negative
    integers, strictly ascending in time. LF and CRLF inputs are both
    accepted. Interior gaps between rows are zero-filled. An input without
    data rows gives an empty series starting at epoch 0.
    """
    lines = source.splitlines() if isinstance(source, str) else [ln.rstrip("\n") for ln in source]
    if not lines:
        raise BadHeader("empty input; expected header line")
    header = lines[0].rstrip("\r")
    if header != BUCKET_CSV_HEADER:
        raise BadHeader(f"expected header {BUCKET_CSV_HEADER!r}, got {header!r}")

    minutes: list[int] = []
    announcements: list[int] = []
    withdrawals: list[int] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip("\r")
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise BucketCsvError(f"line {line_no}: expected 3 fields, got {len(fields)}")
        try:
            minute_s = parse_minute_utc(fields[0])
        except BadTimestamp as exc:
            raise BadTimestamp(f"line {line_no}: {exc}") from None
        for name, text, column in (
            ("announcements", fields[1], announcements),
            ("withdrawals", fields[2], withdrawals),
        ):
            try:
                value = int(text)
            except ValueError:
                raise BucketCsvError(f"line {line_no}: {name} is not an integer: {text!r}") from None
            if value < 0:
                raise NegativeCount(f"line {line_no}: negative {name}: {value}")
            if value >= 2**63:  # the int64 columns hold at most 2**63 - 1
                raise BucketCsvError(f"line {line_no}: {name} exceeds int64: {text!r}")
            column.append(value)
        if minutes and minute_s <= minutes[-1]:
            raise NonMonotonic(
                f"line {line_no}: timestamp {fields[0]} not after the previous row"
            )
        minutes.append(minute_s)

    if not minutes:
        return MinuteSeries(0, np.zeros(0, np.int64), np.zeros(0, np.int64))
    index = (np.array(minutes, dtype=np.int64) - minutes[0]) // MINUTE
    n = int(index[-1]) + 1
    filled_a = np.zeros(n, dtype=np.int64)
    filled_w = np.zeros(n, dtype=np.int64)
    filled_a[index] = announcements
    filled_w[index] = withdrawals
    return MinuteSeries(minutes[0], filled_a, filled_w)


def write_bucket_csv(series: MinuteSeries) -> str:
    """Render a series in the bucket CSV format (LF line endings)."""
    lines = [BUCKET_CSV_HEADER]
    lines.extend(
        f"{format_minute_utc(minute)},{a},{w}"
        for minute, a, w in zip(
            series.minutes().tolist(), series.announcements.tolist(), series.withdrawals.tolist()
        )
    )
    return "\n".join(lines) + "\n"
