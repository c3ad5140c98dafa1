"""Novelty scoring, threshold alarms, and the rule-based comparator.

The novelty of a window is the mean squared difference between the
autoencoder's outputs and its inputs over all 2k dimensions: zero for a
perfect reconstruction, growing as the input leaves the trained envelope.
Alarms group above-threshold minutes into episodes; the rule-based baseline
applies the same grouping to raw per-minute update totals so the two alarm
streams can be compared for lead time.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .autoencoder import AutoencoderModel, DimensionMismatch, reconstruct
from .series import MINUTE, MinuteSeries, csv_columns, first_row_fault, minutes_column
from .series import format_minute_utc, format_minutes_utc, parse_minutes_utc

SOURCE_AUTOENCODER = "autoencoder"
SOURCE_RULE = "rule"

NOVELTY_CSV_HEADER = "minute_utc,novelty"
_SPAN_KEYS = ("start", "end", "peak_minute")  # alarm report fields of AlarmEvent's three minutes


class UnsortedInput(ValueError):
    pass


class EmptyInput(ValueError):
    pass


class BadQuantile(ValueError):
    pass


class BadAlarmReport(ValueError):
    pass


class NonFiniteValue(ValueError):
    pass


@dataclass(frozen=True)
class AlarmEvent:
    """A contiguous above-threshold episode."""

    start_s: int
    end_s: int
    peak_s: int
    peak_value: float
    source: str

    def __post_init__(self):
        if not self.start_s <= self.peak_s <= self.end_s:
            raise ValueError("alarm peak must lie within the event span")


@dataclass(frozen=True)
class DetectorConfig:
    """Threshold in the scored units; gap is quiet minutes tolerated inside one event."""

    threshold: float
    group_gap_minutes: int = 60

    def __post_init__(self):
        if self.group_gap_minutes < 0:
            raise ValueError("group_gap_minutes must be >= 0")


def score_series(model: AutoencoderModel, X: np.ndarray) -> np.ndarray:
    """Novelty of every row of the window matrix X, shape (n, input_dim).

    For :func:`~bgpnovelty.features.make_windows` output, entry ``i`` scores
    the window ending at ``series.minutes()[k - 1 + i]``.
    """
    if X.shape[-1] != model.input_dim:
        raise DimensionMismatch(
            f"windows have {X.shape[-1]} dimensions, model expects {model.input_dim}"
        )
    residual = reconstruct(model, X)
    residual -= X
    residual *= residual
    return np.mean(residual, axis=1)


def detect_alarms(
    minutes: np.ndarray,
    values: np.ndarray,
    cfg: DetectorConfig,
    source: str = SOURCE_AUTOENCODER,
) -> list[AlarmEvent]:
    """Group above-threshold minutes into alarm events.

    ``values[i]`` is the score of minute ``minutes[i]``. A minute is an
    exceedance when its value is strictly greater than the threshold. Two
    exceedances belong to the same event when at most ``group_gap_minutes``
    quiet minutes lie between them (adjacent minutes merge even with a gap
    of zero). Minutes must be strictly ascending. The peak is the first
    minute holding the event's largest value.
    """
    minutes = np.asarray(minutes, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if minutes.shape != values.shape:
        raise ValueError(f"{minutes.size} minutes but {values.size} values")
    unsorted = np.flatnonzero(np.diff(minutes) <= 0)
    if unsorted.size:
        at = format_minute_utc(int(minutes[unsorted[0] + 1]))
        raise UnsortedInput(f"points not in ascending minute order at {at}")
    hot = np.flatnonzero(values > cfg.threshold)
    if hot.size == 0:
        return []
    hot_minutes = minutes[hot]
    hot_values = values[hot]
    merge_span = (cfg.group_gap_minutes + 1) * MINUTE
    splits = np.flatnonzero(np.diff(hot_minutes) > merge_span) + 1
    events = []
    for lo, hi in zip([0, *splits.tolist()], [*splits.tolist(), hot.size]):
        peak = lo + int(np.argmax(hot_values[lo:hi]))
        events.append(
            AlarmEvent(
                int(hot_minutes[lo]),
                int(hot_minutes[hi - 1]),
                int(hot_minutes[peak]),
                float(hot_values[peak]),
                source,
            )
        )
    return events


def rule_alarms(
    series: MinuteSeries,
    threshold: float,
    group_gap_minutes: int = 60,
) -> list[AlarmEvent]:
    """Threshold alarms on raw per-minute update totals (the rule baseline)."""
    return detect_alarms(
        series.minutes(),
        series.totals(),
        DetectorConfig(float(threshold), group_gap_minutes),
        source=SOURCE_RULE,
    )


def suggest_threshold(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile of the values: rank ceil(q*N) of the sorted values."""
    if not 0.0 < q <= 1.0:
        raise BadQuantile(f"quantile must be in (0, 1], got {q}")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise EmptyInput("cannot suggest a threshold from no points")
    rank = math.ceil(q * values.size)
    return float(np.partition(values, rank - 1)[rank - 1])


def lead_time(
    ae_events: Sequence[AlarmEvent],
    rule_events: Sequence[AlarmEvent],
    match_window_minutes: int,
) -> list[tuple[AlarmEvent, AlarmEvent | None, int | None]]:
    """Greedy earliest-first pairing of autoencoder alarms with rule alarms.

    Each autoencoder event takes the earliest unclaimed rule event whose
    start lies within ±match_window_minutes of its own start. Lead is
    rule start minus autoencoder start in minutes, positive when the
    autoencoder fired earlier; unmatched events report None. Both inputs
    must be sorted by start time.
    """
    window_s = match_window_minutes * MINUTE
    claimed = [False] * len(rule_events)
    matches: list[tuple[AlarmEvent, AlarmEvent | None, int | None]] = []
    for ae in ae_events:
        found = None
        for i, rule in enumerate(rule_events):
            if claimed[i]:
                continue
            if rule.start_s > ae.start_s + window_s:
                break
            if rule.start_s >= ae.start_s - window_s:
                found = i
                break
        if found is None:
            matches.append((ae, None, None))
        else:
            claimed[found] = True
            rule = rule_events[found]
            matches.append((ae, rule, (rule.start_s - ae.start_s) // MINUTE))
    return matches


def write_novelty_csv(minutes: np.ndarray, values: np.ndarray) -> str:
    """Render per-minute novelty values as CSV with full-precision values."""
    rows = zip(format_minutes_utc(minutes), map(repr, values.tolist()), strict=True)
    return "\n".join([NOVELTY_CSV_HEADER, *map(",".join, rows)]) + "\n"


def read_novelty_csv(source: str | Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    """Parse the novelty CSV format into int64 minutes and float64 values.

    Values take Python's ``float()`` syntax. Errors name the first bad line;
    a ``nan`` or ``inf`` value raises NonFiniteValue.
    """
    header, (stamps, texts), line_nos, misfit = csv_columns(source, 2, ValueError)
    if header != NOVELTY_CSV_HEADER:
        raise ValueError(f"expected header {NOVELTY_CSV_HEADER!r}")
    minutes, stamp_check = minutes_column(stamps)
    values, bad_value = _floats(texts)
    first_row_fault(line_nos, [
        stamp_check,
        (np.arange(len(texts)) == bad_value[0], lambda i: ValueError(bad_value[1])),
        (~np.isfinite(values), lambda i: NonFiniteValue(f"novelty is not finite: {texts[i]!r}")),
    ], misfit)
    return minutes, values


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


def write_alarm_report(events: Sequence[AlarmEvent]) -> str:
    """Render alarm events as a JSON array."""
    stamps = format_minutes_utc([t for e in events for t in (e.start_s, e.end_s, e.peak_s)])
    document = [
        {**dict(zip(_SPAN_KEYS, stamps[3 * i : 3 * i + 3])), "peak_value": e.peak_value, "source": e.source}
        for i, e in enumerate(events)
    ]
    return json.dumps(document, indent=1) + "\n"


def read_alarm_report(data: str) -> list[AlarmEvent]:
    """Parse a JSON alarm report back into events."""
    try:
        document = json.loads(data)
    except json.JSONDecodeError as exc:
        raise BadAlarmReport(f"alarm report is not valid JSON: {exc}") from None
    if not isinstance(document, list):
        raise BadAlarmReport("alarm report must be a JSON array")
    try:
        stamps = parse_minutes_utc([entry[key] for entry in document for key in _SPAN_KEYS])
        events = [
            AlarmEvent(*span, float(entry["peak_value"]), str(entry["source"]))
            for span, entry in zip(stamps.reshape(-1, 3).tolist(), document)
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadAlarmReport(f"alarm report entry is malformed: {exc}") from None
    return events
