"""Normalized lag-window vectors for training and scoring.

A window ending at minute t holds the k most recent per-minute counts of
each channel, scaled by the training range: k announcement lags
(oldest first) followed by k withdrawal lags (oldest first), 2k values in
total. Normalization is per channel — every lag position of a channel is a
sample of the same process — and deliberately does not clamp: values beyond
the training envelope mapping outside [0, 1] are exactly the signal the
detector looks for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import MinuteSeries


class EmptySeries(ValueError):
    pass


@dataclass(frozen=True)
class NormalizationParams:
    """Per-channel min/max bounds taken from the training range."""

    a_min: float
    a_max: float
    w_min: float
    w_max: float

    def __post_init__(self):
        if self.a_max < self.a_min or self.w_max < self.w_min:
            raise ValueError("normalization bounds must satisfy max >= min")


def fit_normalization(series: MinuteSeries) -> NormalizationParams:
    """Per-channel min/max over the given (training) series."""
    if len(series) == 0:
        raise EmptySeries("cannot fit normalization on an empty series")
    return NormalizationParams(
        a_min=float(series.announcements.min()),
        a_max=float(series.announcements.max()),
        w_min=float(series.withdrawals.min()),
        w_max=float(series.withdrawals.max()),
    )


def _normalize_array(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if hi == lo:
        return np.zeros(values.shape, dtype=np.float64)
    return (values.astype(np.float64) - lo) / (hi - lo)


def make_windows(
    series: MinuteSeries,
    k: int,
    params: NormalizationParams,
) -> np.ndarray:
    """Overlapping stride-1 windows as a contiguous float64 matrix of shape (n, 2k).

    Row ``i`` is the window ending at minute index ``k-1+i``, i.e. at
    ``series.minutes()[k - 1 + i]``; it covers minutes ``i .. k-1+i``
    (current minute included). A series shorter than k yields a (0, 2k)
    matrix. A degenerate training range (max == min) maps the channel to 0.
    """
    if k < 1:
        raise ValueError(f"lag count k must be >= 1, got {k}")
    if len(series) < k:
        return np.zeros((0, 2 * k), dtype=np.float64)
    ann = _normalize_array(series.announcements, params.a_min, params.a_max)
    wd = _normalize_array(series.withdrawals, params.w_min, params.w_max)
    ann_lags = np.lib.stride_tricks.sliding_window_view(ann, k)
    wd_lags = np.lib.stride_tricks.sliding_window_view(wd, k)
    return np.hstack([ann_lags, wd_lags])
