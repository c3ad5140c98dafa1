"""Seeded synthetic update-count series with injectable surges.

Baselines are per-minute Poisson draws around a configurable mean with an
optional diurnal sine modulation; surges multiply the affected channel so a
storm scales with whatever churn is already present. Everything is
deterministic given the seed, which makes desk-scale detection scenarios
exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import MAX_SERIES_MINUTES, MINUTE, CountOverflow, MinuteSeries, format_minute_utc

SECONDS_PER_DAY = 86400
_POISSON_LAM_MAX = 2**63 - 1 - 10 * math.sqrt(2**63 - 1)  # numpy's largest Poisson rate, ten deviations below int64

SHAPE_STEP = "step"
SHAPE_RAMP = "ramp"
SHAPE_SPIKE = "spike"
SHAPES = (SHAPE_STEP, SHAPE_RAMP, SHAPE_SPIKE)

CHANNELS_ANNOUNCEMENTS = "announcements"
CHANNELS_WITHDRAWALS = "withdrawals"
CHANNELS_BOTH = "both"
CHANNELS = (CHANNELS_ANNOUNCEMENTS, CHANNELS_WITHDRAWALS, CHANNELS_BOTH)


class BadParams(ValueError):
    pass


class OutOfRange(ValueError):
    pass


@dataclass(frozen=True)
class SurgeSpec:
    """A worm-style burst: shape, onset, length, strength, affected channels.

    ``magnitude`` multiplies the channel counts. A step holds magnitude for
    the whole window; a ramp interpolates linearly from 1x at the first
    minute to magnitude at the last; a spike applies magnitude at the onset
    minute only.
    """

    start_minute_s: int
    duration_minutes: int
    shape: str
    magnitude: float
    channels: str = CHANNELS_BOTH

    def __post_init__(self):
        if self.start_minute_s % MINUTE != 0:
            raise BadParams("surge start must be minute-aligned epoch seconds")
        if self.duration_minutes < 1:
            raise BadParams("surge duration must be >= 1 minute")
        if not 0 < self.magnitude < np.inf:
            raise BadParams(f"surge magnitude must be finite and > 0, got {self.magnitude}")
        if self.shape not in SHAPES:
            raise BadParams(f"unknown surge shape: {self.shape!r}")
        if self.channels not in CHANNELS:
            raise BadParams(f"unknown surge channels: {self.channels!r}")


def gen_baseline(
    minutes: int,
    mean_a: float,
    mean_w: float,
    diurnal_amp: float,
    seed: int,
    start_minute_s: int = 0,
) -> MinuteSeries:
    """Quiet-period series: independent Poisson counts per minute.

    The rate for each minute is mean * (1 + diurnal_amp * sin(2*pi * m/1440))
    with m the UTC minute of day, so the daily cycle is anchored to clock
    time. Announcements are drawn before withdrawals from a single seeded
    generator; the same seed always yields the same series.
    """
    if not 1 <= minutes <= MAX_SERIES_MINUTES:
        raise BadParams(f"minutes must be from 1 to the {MAX_SERIES_MINUTES}-minute series limit, got {minutes}")
    if not 0.0 <= diurnal_amp < 1.0:
        raise BadParams("diurnal_amp must be in [0, 1)")
    if start_minute_s % MINUTE != 0:
        raise BadParams("start must be minute-aligned epoch seconds")
    starts = start_minute_s + MINUTE * np.arange(minutes, dtype=np.int64)
    minute_of_day = (starts % SECONDS_PER_DAY) / MINUTE
    factor = 1.0 + diurnal_amp * np.sin(2.0 * np.pi * minute_of_day / 1440.0)
    rates = []
    for flag, mean in (("--mean-a", mean_a), ("--mean-w", mean_w)):
        if not 0.0 < mean < np.inf:
            raise BadParams(f"{flag} must be finite and > 0, got {mean}")
        rates.append(mean * factor)
        if rates[-1].max() > _POISSON_LAM_MAX:
            raise BadParams(f"{flag} {mean} peaks at a rate of {rates[-1].max():.6g} a minute, "
                            f"above the largest Poisson rate, {_POISSON_LAM_MAX:.6g}")
    rng = np.random.default_rng(seed)
    announcements = rng.poisson(rates[0]).astype(np.int64)
    withdrawals = rng.poisson(rates[1]).astype(np.int64)
    return MinuteSeries(start_minute_s, announcements, withdrawals)


def surge_multipliers(spec: SurgeSpec) -> np.ndarray:
    """Per-minute multiplier profile over the surge window."""
    d = spec.duration_minutes
    if spec.shape == SHAPE_STEP:
        return np.full(d, spec.magnitude)
    if spec.shape == SHAPE_SPIKE:
        out = np.ones(d)
        out[0] = spec.magnitude
        return out
    # ramp: endpoints exact, 1x at the first minute, magnitude at the last
    if d == 1:
        return np.array([spec.magnitude])
    return 1.0 + (spec.magnitude - 1.0) * (np.arange(d) / (d - 1))


def inject_surge(series: MinuteSeries, spec: SurgeSpec) -> MinuteSeries:
    """Multiply counts over the surge window; scaled counts round to nearest.

    Leaves the input untouched and never changes series length or minute
    alignment. The window must lie entirely within the series, and a scaled
    count that would leave int64 raises CountOverflow naming its minute.
    """
    if len(series) == 0:
        raise OutOfRange("cannot inject a surge into an empty series")
    first = (spec.start_minute_s - series.start_minute_s) // MINUTE
    last = first + spec.duration_minutes - 1
    if spec.start_minute_s % MINUTE or first < 0 or last >= len(series):
        raise OutOfRange(
            f"surge window of {spec.duration_minutes} min starting at "
            f"{spec.start_minute_s} falls outside the series"
        )
    multipliers = surge_multipliers(spec)
    announcements = series.announcements.copy()
    withdrawals = series.withdrawals.copy()
    window = slice(first, last + 1)
    for channel, counts in ((CHANNELS_ANNOUNCEMENTS, announcements), (CHANNELS_WITHDRAWALS, withdrawals)):
        if spec.channels in (channel, CHANNELS_BOTH):
            with np.errstate(over="ignore"):  # a product past float64 is inf, caught below
                scaled = np.rint(counts[window] * multipliers)
            over = np.flatnonzero(scaled >= 2.0**63)
            if over.size:
                stamp = format_minute_utc(series.minute_at(first + int(over[0])))
                raise CountOverflow(f"surge scales the {channel} of minute {stamp} past int64")
            counts[window] = scaled.astype(np.int64)
    return MinuteSeries(series.start_minute_s, announcements, withdrawals)
