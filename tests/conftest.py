"""Shared fixtures: the reference top-15 table, a trained session pipeline and the worker-pool helpers."""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bgpnovelty import autoencoder, detector
from bgpnovelty.autoencoder import AutoencoderModel, init_model, sse_loss
from bgpnovelty.detector import score_series, suggest_threshold
from bgpnovelty.features import NormalizationParams, fit_normalization, make_windows
from bgpnovelty.scg import TrainReport, train
from bgpnovelty.series import MINUTE, MinuteSeries, parse_minute_utc, slice_range
from bgpnovelty.synth import gen_baseline

# Reference ranking of the highest per-minute totals (descending), used by
# several suites: time-sorted on the way in, rank-ordered on the way out.
TOP15 = [
    ("2001-07-27T14:50:00Z", 595001),
    ("2001-08-02T13:30:00Z", 592458),
    ("2001-08-17T20:57:00Z", 572124),
    ("2001-08-18T20:39:00Z", 556038),
    ("2001-07-12T12:42:00Z", 541756),
    ("2001-08-03T11:24:00Z", 534271),
    ("2001-08-20T20:44:00Z", 526423),
    ("2001-06-10T17:35:00Z", 504463),
    ("2001-08-06T23:03:00Z", 499349),
    ("2001-06-10T17:36:00Z", 486930),
    ("2001-07-12T12:39:00Z", 475865),
    ("2001-07-12T12:38:00Z", 453161),
    ("2001-08-10T16:32:00Z", 436326),
    ("2001-08-10T16:33:00Z", 432627),
    ("2001-08-20T20:43:00Z", 418252),
]


def cpus(monkeypatch, count):
    """Size the thread pool of training and scoring as if the process could run on ``count`` CPUs."""
    monkeypatch.setattr(autoencoder, "_usable_cpus", lambda: count)


@pytest.fixture
def block_threads(monkeypatch):
    """The threads that run the network's forward pass on a block, collected as training or scoring runs."""
    seen = set()
    forward = autoencoder._forward

    def recorded(*args):
        seen.add(threading.current_thread())
        return forward(*args)

    monkeypatch.setattr(autoencoder, "_forward", recorded)
    return seen


@pytest.fixture
def buffer_sets(monkeypatch):
    """The thread that makes each of the pool's buffer sets, collected as training or scoring runs."""
    made = []
    pool = autoencoder._pool

    def recorded(new_buffers):
        def made_here():
            made.append(threading.current_thread())
            return new_buffers()

        return pool(made_here)

    monkeypatch.setattr(autoencoder, "_pool", recorded)
    monkeypatch.setattr(detector, "_pool", recorded)
    return made


def threads_started(monkeypatch) -> list:
    """The threads started from here on, collected as they start."""
    started = []
    start = threading.Thread.start

    def recorded(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    return started


def top15_csv_text() -> str:
    """The reference rows as a bucket CSV (chronological, totals in one channel)."""
    rows = sorted((parse_minute_utc(ts), total) for ts, total in TOP15)
    lines = ["minute_utc,announcements,withdrawals"]
    from bgpnovelty.series import format_minute_utc

    lines.extend(f"{format_minute_utc(m)},{total},0" for m, total in rows)
    return "\n".join(lines) + "\n"


def top15_series() -> MinuteSeries:
    """Gapless series holding the reference rows (all other minutes zero)."""
    rows = sorted((parse_minute_utc(ts), total) for ts, total in TOP15)
    start = rows[0][0]
    announcements = np.zeros((rows[-1][0] - start) // MINUTE + 1, dtype=np.int64)
    for minute, total in rows:
        announcements[(minute - start) // MINUTE] = total
    return MinuteSeries(start, announcements, np.zeros_like(announcements))


# Pipeline configuration for the session-scoped trained model: a quiet week
# of per-minute counts plus one held-out day, window length 50 per channel,
# 100 hidden units, 100 training cycles.
SERIES_SEED = 42
INIT_SEED = 7
K = 50
HIDDEN = 100
CYCLES = 100
MEAN_A = 1000.0
MEAN_W = 300.0
DIURNAL = 0.2
WEEK_MINUTES = 10_080
TOTAL_MINUTES = WEEK_MINUTES + 1_440


@dataclass
class TrainedPipeline:
    full: MinuteSeries
    train_series: MinuteSeries
    norm: NormalizationParams
    matrix: np.ndarray
    model0: AutoencoderModel
    model: AutoencoderModel
    report: TrainReport
    initial_loss: float
    train_seconds: float
    quiet_novelty: np.ndarray
    threshold: float
    train_end_s: int
    test_start_s: int


@pytest.fixture(scope="session")
def pipeline() -> TrainedPipeline:
    full = gen_baseline(TOTAL_MINUTES, MEAN_A, MEAN_W, DIURNAL, seed=SERIES_SEED)
    train_end_s = full.minute_at(WEEK_MINUTES - 1)
    train_series = slice_range(full, full.start_minute_s, train_end_s)
    norm = fit_normalization(train_series)
    matrix = make_windows(train_series, K, norm)
    model0 = init_model(2 * K, HIDDEN, seed=INIT_SEED, norm=norm)
    initial_loss = sse_loss(model0, matrix)
    started = time.perf_counter()
    model, report = train(model0, matrix, CYCLES)
    train_seconds = time.perf_counter() - started
    quiet_novelty = score_series(model, matrix)
    threshold = suggest_threshold(quiet_novelty, 0.999)
    return TrainedPipeline(
        full=full,
        train_series=train_series,
        norm=norm,
        matrix=matrix,
        model0=model0,
        model=model,
        report=report,
        initial_loss=initial_loss,
        train_seconds=train_seconds,
        quiet_novelty=quiet_novelty,
        threshold=threshold,
        train_end_s=train_end_s,
        test_start_s=full.minute_at(WEEK_MINUTES),
    )
