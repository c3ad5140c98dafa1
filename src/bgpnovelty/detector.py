"""Novelty scoring, threshold alarms, and the rule-based comparator.

The novelty of a window is the mean squared difference between the
autoencoder's outputs and its inputs over all 2k dimensions: zero for a
perfect reconstruction, growing as the input leaves the trained envelope.
Scoring cuts a series' windows into blocks of ``SCORE_BLOCK_ROWS`` and
runs them through training's block runner, ``autoencoder._pool``; a
window's novelty does not depend on the block size or the worker count.
Alarms group above-threshold minutes into episodes; the rule-based baseline
applies the same grouping to raw per-minute update totals so the two alarm
streams can be compared for lead time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import BinaryIO, Sequence, TextIO

import numpy as np

from . import features
from .autoencoder import AutoencoderModel, _check_matrix, _pool, reconstruct
from .series import MINUTE, CsvRows, MinuteSeries, first_row_fault, read_csv, write_minute_csv
from .series import format_minute_utc, format_minutes_utc, parse_minutes_utc

SOURCE_AUTOENCODER = "autoencoder"
SOURCE_RULE = "rule"

NOVELTY_CSV_HEADER = "minute_utc,novelty"
SCORE_BLOCK_ROWS = 2**9  # windows the network runs on, and a score_windows task builds, at a time
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
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")
        if self.group_gap_minutes < 0:
            raise ValueError("group_gap_minutes must be >= 0")


def score_series(model: AutoencoderModel, X: np.ndarray, buffers: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Novelty of every row of the window matrix X, shape (n, input_dim): entry ``i`` scores row ``i``.

    The network runs on ``SCORE_BLOCK_ROWS`` rows at a time, in the calling
    thread, the last block padded with zero rows. BLAS picks its kernel by
    the matrix shape, and a kernel for fewer rows may round a row's sums
    differently; with one shape for every call, a row's novelty does not
    depend on the rows scored with it. At the pipeline's 100 inputs and 100
    hidden units a block's products are above the about 10**6 multiply-adds
    that OpenBLAS's SkylakeX kernels round through small-matrix code, so
    there the novelty does not depend on ``SCORE_BLOCK_ROWS`` either.
    ``buffers`` are the float64 (windows, hidden, output) matrices of
    ``SCORE_BLOCK_ROWS`` rows that a thread scoring block after block passes
    to every call, as fresh ones cost as much in page faults as the products;
    a short block is padded in the first, where it may already lie. Without
    them, a call pads in one matrix of its own.
    """
    _check_matrix(model, X)
    padded, *layers = buffers or (np.empty((SCORE_BLOCK_ROWS, X.shape[1])),)
    novelty = np.empty(len(X))
    for lo in range(0, len(X), SCORE_BLOCK_ROWS):
        block = X[lo : lo + SCORE_BLOCK_ROWS]
        rows = len(block)
        if rows < SCORE_BLOCK_ROWS:
            padded[:rows] = block  # numpy skips the copy when the block already lies there
            padded[rows:] = 0.0
            block = padded
        residual = reconstruct(model, block, layers)
        residual -= block
        residual *= residual
        novelty[lo : lo + rows] = np.mean(residual[:rows], axis=1)
    return novelty


def score_windows(model: AutoencoderModel, series: MinuteSeries) -> np.ndarray:
    """:func:`score_series` of the series' windows, built and scored ``SCORE_BLOCK_ROWS`` at a time.

    Entry ``i`` scores the window ending at ``series.minutes()[model.k - 1 + i]``.
    Every block, the short last one too, runs on ``autoencoder._pool``, the
    runner ``scg.train`` uses: one worker per usable CPU, up to
    ``autoencoder._MAX_BLOCKS``, each building, padding and scoring one
    block at a time in the window and layer buffers the pool hands it, made
    in this thread. No thread outlives the call, and the novelty is the same
    at any worker count. Memory follows the block and the workers, not the
    series, apart from 8 bytes a window.
    """
    novelty = np.empty(max(len(series) - model.k + 1, 0))
    widths = model.input_dim, model.hidden_dim, model.input_dim  # of the windows and the two layers

    def score_block(lo: int, buffers: tuple[np.ndarray, ...]) -> None:
        minutes = slice(lo, min(lo + SCORE_BLOCK_ROWS, novelty.size) + model.k - 1)  # those its windows cover
        part = MinuteSeries(series.minute_at(lo), series.announcements[minutes], series.withdrawals[minutes])
        windows = features.make_windows(part, model.k, model.norm, out=buffers[0])
        novelty[lo : lo + len(windows)] = score_series(model, windows, buffers)

    with _pool(lambda: tuple(np.empty((SCORE_BLOCK_ROWS, w)) for w in widths)) as run:
        run(score_block, range(0, novelty.size, SCORE_BLOCK_ROWS))
    return novelty


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
    must be sorted by start time, else UnsortedInput names the first event
    out of order; a negative window raises ValueError.
    """
    if match_window_minutes < 0:
        raise ValueError(f"match window must be >= 0 minutes, got {match_window_minutes}")
    for name, events in (("autoencoder", ae_events), ("rule", rule_events)):
        early = np.flatnonzero(np.diff([event.start_s for event in events]) < 0)
        if early.size:
            n = int(early[0]) + 2  # 1-based number of the event that starts before the one ahead of it
            at = format_minute_utc(events[n - 1].start_s)
            raise UnsortedInput(f"{name} events not sorted by start: event {n} starts at {at}, before event {n - 1}")
    window_s = match_window_minutes * MINUTE
    matches: list[tuple[AlarmEvent, AlarmEvent | None, int | None]] = []
    i = 0  # rule events before i are claimed or start too early for this and every later event
    for ae in ae_events:
        while i < len(rule_events) and rule_events[i].start_s < ae.start_s - window_s:
            i += 1
        if i < len(rule_events) and rule_events[i].start_s <= ae.start_s + window_s:
            rule, i = rule_events[i], i + 1
            matches.append((ae, rule, (rule.start_s - ae.start_s) // MINUTE))
        else:
            matches.append((ae, None, None))
    return matches


def write_novelty_csv(start_minute_s: int, values: np.ndarray, out: TextIO) -> None:
    """Write the novelty of the minutes from ``start_minute_s`` on, as :func:`.series.write_minute_csv` does."""
    write_minute_csv(out, NOVELTY_CSV_HEADER, start_minute_s, np.asarray(values, dtype=np.float64))


def read_novelty_csv(stream: BinaryIO) -> tuple[np.ndarray, np.ndarray]:
    """Parse a binary file object in the novelty CSV format into int64 minutes and float64 values.

    The file is read as :func:`~bgpnovelty.series.read_csv` says. Values
    take Python's ``float()`` syntax. Errors name the first bad line; a
    ``nan`` or ``inf`` value raises NonFiniteValue.
    """
    minutes, values = [np.empty(0, np.int64)], [np.empty(0)]

    def read_rows(rows: CsvRows) -> None:
        stamps, stamp_check = rows.minutes()
        scores, bad, error = _floats(rows.fields(1))
        first_row_fault(rows.line_nos, [
            stamp_check,
            (np.arange(scores.size) == bad, lambda i: error),
            (~np.isfinite(scores), lambda i: NonFiniteValue(f"novelty is not finite: {rows.text(1, i)!r}")),
        ], rows.misfit)
        minutes.append(stamps)
        values.append(scores)

    read_csv(stream, 2, ValueError, _check_novelty_header, read_rows)
    return np.concatenate(minutes), np.concatenate(values)


def _check_novelty_header(header: str | None) -> None:
    if header != NOVELTY_CSV_HEADER:
        raise ValueError(f"expected header {NOVELTY_CSV_HEADER!r}")


def _floats(fields: list[bytes]) -> tuple[np.ndarray, int, ValueError | None]:
    """``float()`` of each field's UTF-8 text, and the index and error of the first that fails (-1, None for none).

    The values from the failing field on are NaN.
    """
    try:  # float() reads ASCII bytes as it reads their text, and fails on any other byte
        return np.fromiter(map(float, fields), np.float64, len(fields)), -1, None
    except ValueError:
        pass
    values = np.full(len(fields), np.nan)
    for i, field in enumerate(fields):  # a failure, or text beyond ASCII such as other scripts' digits
        try:
            values[i] = float(field.decode())
        except ValueError as exc:
            return values, i, exc
    return values, -1, None


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
