"""Gapless per-minute series of announcement/withdrawal counts.

The canonical time axis is epoch seconds aligned to minute boundaries
(multiples of 60, UTC). Minutes with no data are zero-filled everywhere,
so downstream window extraction never sees a hole; a collector outage
simply shows up as a run of zero buckets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Sequence, TextIO

import numpy as np

MINUTE = 60

# Longest series a reader or bucketize builds, about 8 years: zero-filling makes memory follow
# the time span, not the rows, and at this cap the two int64 count columns take 64 MiB.
MAX_SERIES_MINUTES = 2**22

BUCKET_CSV_HEADER = "minute_utc,announcements,withdrawals"

_BUCKETIZE_ROWS = 1 << 16  # rows bucketize sums at once
CSV_BLOCK_ROWS = 2**12  # rows a bucket- or novelty-CSV write renders at once
# Bytes a CSV read takes at a time. Each chunk costs a fixed run of numpy calls: read one row a chunk, a
# bucket CSV took about 0.19 ms and a novelty CSV 0.12 ms more a chunk (2-vCPU Xeon, numpy 2.4).
CSV_CHUNK_BYTES = 2**18


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
    rows = np.empty((_STAMP_LEN + 1, minutes.size), np.uint8)  # one stamp and its LF a column
    _stamp_text(minutes // MINUTE, rows[:_STAMP_LEN])
    rows[_STAMP_LEN] = _LF
    return rows.T.tobytes().decode("ascii").splitlines()


def _stamp_text(minutes: np.ndarray, out: np.ndarray) -> None:
    """Write the stamps of the epoch minutes, one a column, into the ``(20, n)`` uint8 array ``out``."""
    days, day_of = np.unique(minutes // 1440, return_inverse=True)  # each date is rendered once
    np.take(days.astype("datetime64[D]").astype("S10").view(np.uint8).reshape(-1, 10).T, day_of, axis=1, out=out[:10])
    np.take(_CLOCK, minutes % 1440, axis=1, out=out[10:16])
    out[16:] = _STAMP[16:, None]


def format_minute_utc(minute_start_s: int) -> str:
    """One minute through :func:`format_minutes_utc`."""
    return format_minutes_utc([minute_start_s])[0]


_LF, _CR, _COMMA, _ZERO, _DOT, _MINUS = b"\n\r,0.-"
_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z", np.uint8)
_STAMP_LEN = _STAMP.size
_STAMP_RANGE = np.frombuffer(b"9999-99-99T99:99:00Z", np.uint8) - _STAMP  # how far each byte may exceed _STAMP
_STAMP_FIELDS = ((0, 4), (5, 2), (8, 2), (11, 2), (14, 2))  # (first byte, digits) of year, month, day, hour, minute
_FIRST_SECOND, _LAST_SECOND = -62135596800, 253402300799  # 0001-01-01T00:00:00Z, 9999-12-31T23:59:59Z
_COUNT_DIGITS = len(str(2**63 - 1))  # a count of more significant digits exceeds int64
# "THH:MM" of each minute of a day, one a column, from the stamps of the day 1970-01-01
_CLOCK = np.arange(1440).astype("datetime64[m]").astype("S16")[:, None].view(np.uint8)[:, 10:].T.copy()


def _stamp_column(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Epoch seconds of the stamps ``buf[starts[i]:ends[i]]``, which are stamp-shaped, which are calendar dates.

    ``buf`` is uint8 and holds at least 20 bytes from every start on. The
    seconds hold only where a stamp is both.
    """
    digits = _byte_rows(buf, starts, _STAMP_LEN, _STAMP[:, None])  # each stamp less the pattern, wrapping below zero
    shaped = (ends - starts == _STAMP_LEN) & (digits <= _STAMP_RANGE[:, None]).all(axis=0)
    year, month, day, hour, minute = (_decimal(digits[lo : lo + width], np.int32) for lo, width in _STAMP_FIELDS)
    months, month_of = np.unique((year - 1970) * 12 + month - 1, return_inverse=True)  # each month is cast once
    first_days = months.astype("datetime64[M]").astype("datetime64[D]").view(np.int64)  # since 1970-01-01
    month_days = ((months + 1).astype("datetime64[M]").astype("datetime64[D]").view(np.int64) - first_days)[month_of]
    days = first_days[month_of]
    on_calendar = (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    on_calendar &= (hour < 24) & (minute < 60)
    return 86400 * (days + day - 1) + 3600 * hour + 60 * minute, shaped, on_calendar


def _byte_rows(buf: np.ndarray, firsts: np.ndarray, width: int, less) -> np.ndarray:
    """The C-contiguous ``(width, n)`` uint8 matrix of ``buf[firsts + j] - less[j]`` in row j, wrapping below zero.

    ``buf`` is 1-D uint8 and holds ``width`` bytes from every first on;
    ``less`` is a ``(width, 1)`` array or a scalar. The bytes are gathered
    as one ``width``-byte item a row and transposed in the subtraction.
    """
    items = np.ndarray((buf.size - width + 1,), f"V{width}", buf, 0, (1,))  # the width bytes from every offset
    rows = np.empty((width, firsts.size), np.uint8)
    np.subtract(items[firsts].view(np.uint8).reshape(-1, width).T, less, out=rows)
    return rows


def _decimal(digits: np.ndarray, dtype: type) -> np.ndarray:
    """The numbers whose decimal digits are the rows of ``digits``, most significant first."""
    value = np.zeros(digits.shape[1], dtype)
    for row in digits:
        value *= 10
        value += row
    return value


def _stamp_error(shaped: bool, text: str) -> BadTimestamp:
    return BadTimestamp(f"{'invalid calendar' if shaped else 'not a minute-aligned UTC'} timestamp: {text!r}")


# The decimal codec of float64 CSV columns. Both directions work on whole arrays in the fixed form that repr
# writes for 1e-4 <= v < 1e16 ("digits.digits"), and hand each value they cannot certify to float() or repr(),
# so values stay bit-identical and text byte-identical to theirs. Selections between uint8 arrays multiply by a
# mask: np.where and masked copies there cost about 30 times as much.
_FLOAT_WIDTH = 25  # longest field the reader takes: a point and 24 digits, at most 23 of them after the point
_PAD = _FLOAT_WIDTH  # spare bytes on either side of a CSV piece: the widest fixed-width read (a stamp takes 20)
_POINT = (ord(".") - _ZERO) % 256  # a point less "0", as a uint8
_INT_TEXT = 20  # bytes a rendered int64 takes: a sign and 19 digits, NUL where absent
_FLOAT_TEXT = 24  # bytes a rendered float takes, NUL where absent: repr's longest, such as "-1.2345678901234567e-308"
_MANTISSA = np.uint64(2**52 - 1)
_SPLIT = 2.0**27 + 1  # Veltkamp's constant: splits a float64 into two halves of 26 bits
_TEN = np.array([float(10**k) for k in range(_FLOAT_WIDTH + 1)])  # exact through 10**22
_SLOTS = np.arange(_FLOAT_WIDTH + 1, dtype=np.uint8)[:, None]  # the place of each byte of a column of them
_TRIPLES = (np.arange(1000) // np.array([[100], [10], [1]]) % 10 + _ZERO).astype(np.uint8)  # (3, 1000): "000".."999"


def _tenths(count: int) -> tuple[np.ndarray, np.ndarray]:
    """10**-f as an unevaluated sum hi + lo of float64 arrays, for f below ``count``, each part correctly rounded."""
    his, los = [], []
    for f in range(count):
        hi = 1 / 10**f  # int true division rounds correctly
        num, den = hi.as_integer_ratio()
        his.append(hi)
        los.append((den - num * 10**f) / (den * 10**f))  # 10**-f - hi, exactly, then rounded
    return np.array(his), np.array(los)


_TENTH_HI, _TENTH_LO = _tenths(_FLOAT_WIDTH + 1)


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``p, e`` with ``p`` the float64 product and ``p + e == a * b`` exactly (Dekker), far from over- and underflow."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _ulp(x: np.ndarray) -> np.ndarray:
    """The gap from each positive finite float64 to the next one up, exactly."""
    return (x.view(np.int64) + 1).view(np.float64) - x


def _binade_edge(x: np.ndarray) -> np.ndarray:
    """Where a float64 is a power of two (or zero), so the gap below it is half the gap above."""
    return (x.view(np.uint64) & _MANTISSA) == 0


def _digit_rows(values: np.ndarray, groups: int) -> np.ndarray:
    """The ``(3 * groups, n)`` ASCII digits of integers from 0 below 1000**groups, most significant first."""
    out = np.empty((groups, 3, values.size), np.uint8)
    for group in out[::-1]:
        high = values // 1000
        np.take(_TRIPLES, values - high * 1000, axis=1, out=group)
        values = high
    return out.reshape(3 * groups, -1)


def parse_decimals(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``float()`` of the fields ``buf[starts[i]:ends[i]]`` of the form ``digits.digits``, and where it is unsure.

    ``buf`` is uint8 and holds 25 bytes before every end. A field of at
    most 25 bytes, a run of ASCII digits, a point and another run, reads
    exactly in float64: its digits less the point form an integer ``m``
    below 10**18, and ``f`` of them follow the point. If ``m < 2**53`` and
    ``f <= 22`` the value is ``m / 10.0**f``, both factors exact (Clinger's
    fast path); otherwise it is Dekker's double-double product of ``m`` and
    10**-f, kept only where the rounding it implies is certain. The second
    array is True where a field is of another form or its value is
    unsure; the value there is meaningless.
    """
    lengths = ends - starts
    width = min(max(int(lengths.max(initial=0)), 3), _FLOAT_WIDTH)
    digits = _byte_rows(buf, ends - width, width, _ZERO)  # (width, rows), right-aligned; a point reads _POINT
    digits *= _SLOTS[:width] >= (width - np.minimum(lengths, width)).astype(np.uint8)  # zeros before each field
    point = ((digits == _POINT) * _SLOTS[1 : width + 1]).max(axis=0)  # 1 + the last point's place, 0 for none
    fraction = width - point.astype(np.int64)  # digits after the point
    # The digits less the point, right-aligned under zero rows up to whole 3-digit groups. A field with a
    # second point keeps one, which reads above 9.
    groups = -(-(width - 1) // 3)
    plain = np.zeros((3 * groups, digits.shape[1]), np.uint8)
    shifted = plain[3 * groups - width + 1 :]
    shifted[...] = digits[:-1]
    shifted += (digits[1:] - digits[:-1]) * (_SLOTS[1:width] >= point)
    triples = np.multiply(plain[0::3], 100, dtype=np.uint16)  # an explicit dtype: numpy 1.24 would keep uint8
    triples += np.multiply(plain[1::3], 10, dtype=np.uint16)
    triples += plain[2::3]
    m = np.zeros(digits.shape[1], np.int64)
    for group in triples[-6:]:  # 18 digits fit in int64
        m *= 1000
        m += group
    shaped = (plain <= 9).all(axis=0) & ~triples[:-6].any(axis=0) & (fraction >= 1) & (fraction < lengths - 1)
    shaped &= lengths <= width
    exact = (m < 2**53) & (fraction <= 22)
    m_hi = m.astype(np.float64)
    m_lo = (m - m_hi.astype(np.int64)).astype(np.float64)
    tenth = _TENTH_HI[fraction]
    p, e = _two_product(m_hi, tenth)
    t = e + (m_hi * _TENTH_LO[fraction] + m_lo * tenth)  # within 2**-102 |p| of m * 10**-f - p
    s = p + t
    residue = t - (s - p)  # p + t - s, exactly, as |t| <= |p|
    half_gap = np.where(_binade_edge(s), 0.25, 0.5) * _ulp(s)  # the smaller of the half-gaps either side of s
    sure = np.abs(residue) + s * 2.0**-100 < half_gap
    values = np.where(exact, m / _TEN[fraction], s)
    return values, ~(shaped & (exact | sure))


def render_decimals(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``repr`` of each float64, one a column, into the ``(24, n)`` uint8 array ``out``, NUL where no byte is.

    A value in [1e-4, 1e16) that is not a power of two is rendered in
    numpy: one Dekker product gives ``y = v * 10**k`` exactly, with ``k`` so
    that ``y`` has 17 integer digits; the nearest integers to ``y / 100``,
    ``y / 10`` and ``y`` follow by exact integer rounding, and the first of
    them that is certainly within half an ulp of ``v`` gives the digits.
    Returns the indices of the values whose text came from ``repr``: zero,
    negatives, powers of two, values outside that range, and any value
    whose candidate is a tie or within 2**-40 of its interval's edge.
    """
    values = np.asarray(values, dtype=np.float64)
    fast = (values >= 1e-4) & (values < 1e16) & ~_binade_edge(values)
    x = np.where(fast, values, 1.5)  # keeps the arithmetic below finite
    decpt = np.floor(np.log10(x)).astype(np.int64) + 1  # v is 0.d1d2... * 10**decpt, unless log10 misses
    scale = _TEN[17 - decpt]
    y_hi, y_lo = _two_product(x, scale)
    whole = np.floor(y_lo)
    fraction = y_lo - whole  # exact, as |y_lo| <= 8
    floor = y_hi.astype(np.int64) + whole.astype(np.int64)
    half_ulp = 0.5 * _ulp(x) * scale  # exact: a power of two times an exact power of ten
    fast &= (floor >= 10**16) & (floor < 10**17 - 100)  # y has 17 digits, and so do its roundings
    chosen, settled, tied = np.zeros_like(floor), ~fast, np.zeros_like(fast)
    for step in (100, 10, 1):  # the first certain candidate is the shortest
        q = floor // step
        rest = (floor - q * step) + fraction  # within 2**-46 of y mod step
        up = rest > step / 2
        distance = np.where(up, step - rest, rest)
        take = ~settled & (distance < half_ulp - 2.0**-40)
        chosen = np.where(take, (q + up) * step, chosen)
        tied |= take & (rest == step / 2)
        settled |= distance <= half_ulp + 2.0**-40  # a candidate too near the edge to call ends the search
    slow = np.flatnonzero(~fast | tied | (chosen == 0))
    decpt = np.clip(decpt, -3, 16).astype(np.int8)
    digits = _digit_rows(chosen, 6)[1:]  # (17, n): the digits of y's candidate
    significant = ((digits != _ZERO) * _SLOTS[1:18]).max(axis=0)  # through the last nonzero digit
    digits *= _SLOTS[:17] < np.maximum(significant, decpt + 1).astype(np.uint8)  # and through the ones place
    small = decpt <= 0  # "0.", then -decpt zeros, then the digits
    out[0] = small * np.uint8(_ZERO)
    out[1] = small * np.uint8(_DOT)
    out[2:5] = (_SLOTS[:3] < np.maximum(-decpt, 0).astype(np.uint8)) * np.uint8(_ZERO)
    point = np.where(small, 18, decpt).astype(np.uint8)  # a point after the first decpt digits, where decpt >= 1
    body = out[5:23]
    body[:17] = digits * (_SLOTS[:17] < point)
    body[17] = 0
    out[23] = 0
    body[1:] += digits * (_SLOTS[1:18] > point)
    body += (_SLOTS[:18] == point) * np.uint8(_DOT)
    if slow.size:
        texts = np.array([repr(v) for v in values[slow].tolist()], f"S{_FLOAT_TEXT}")
        out[:, slow] = texts.view(np.uint8).reshape(-1, _FLOAT_TEXT).T
    return slow


def _render_integers(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``repr`` of each int64, one a column, into the ``(20, n)`` uint8 array ``out``, NUL where no byte is."""
    negative = values < 0
    magnitude = values.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)  # wraps, so -2**63 gives 2**63
    digits = out[1:]
    digits[...] = _digit_rows(magnitude, 7)[2:]
    places = _SLOTS[19:0:-1]  # how many digits each position leaves to its end
    digits *= places <= np.maximum(((digits != _ZERO) * places).max(axis=0), 1)  # no leading zeros
    out[0] = negative * np.uint8(_MINUS)


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
        """Announcements plus withdrawals per minute; a sum outside int64 raises CountOverflow naming its minute."""
        totals = self.announcements + self.withdrawals
        over = np.flatnonzero((totals ^ self.announcements) & (totals ^ self.withdrawals) < 0)  # sign unlike both terms
        if over.size:
            stamp = format_minute_utc(self.minute_at(int(over[0])))
            raise CountOverflow(f"announcements plus withdrawals of minute {stamp} pass int64")
        return totals


def bucketize(records: np.ndarray, start_minute_s: int, end_minute_s: int) -> MinuteSeries:
    """Sum ``(timestamp_s, announced, withdrawn)`` rows into one-minute buckets.

    ``records`` is an ``(n, 3)`` integer array holding every row at once,
    as ``mrt.parse_mrt_stream`` returns for a whole dump (24 bytes per
    UPDATE); the range is inclusive and at most ``MAX_SERIES_MINUTES`` long.
    Rows need not be sorted; rows outside the range are dropped; minutes
    with no rows hold zeros. Sums are exact: a minute whose sum leaves int64
    raises CountOverflow. The output always spans ``(end - start)/60 + 1``
    buckets regardless of input sparsity. Rows are summed ``_BUCKETIZE_ROWS``
    at a time, so the temporaries follow that block, not ``records``.
    """
    _check_range(start_minute_s, end_minute_s)
    records = np.asarray(records, dtype=np.int64)
    if records.ndim != 2 or records.shape[1] != 3:
        raise ValueError(f"records must be an (n, 3) array, got shape {records.shape}")
    n = (end_minute_s - start_minute_s) // MINUTE + 1
    # Summing the high and low 32-bit halves apart cannot wrap below 2**31 rows a minute.
    halves = np.zeros((4, n + 1), dtype=np.int64)
    for lo in range(0, len(records), _BUCKETIZE_ROWS):
        block = records[lo : lo + _BUCKETIZE_ROWS]
        index = (block[:, 0] - start_minute_s) // MINUTE
        index[(index < 0) | (index >= n)] = n  # rows outside the range go to a spare bucket, dropped below
        counts = block[:, 1], block[:, 2]
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


def read_bucket_csv(stream: BinaryIO) -> MinuteSeries:
    """Read a binary file object in the bucket CSV format into a gapless series.

    The first line must be exactly ``minute_utc,announcements,withdrawals``;
    rows carry a ``YYYY-MM-DDTHH:MM:00Z`` timestamp and two counts of ASCII
    decimal digits, strictly ascending in time and less than
    ``MAX_SERIES_MINUTES`` minutes after the first row. The file is read as
    :func:`read_csv` says. Interior gaps between rows are zero-filled. An
    input without data rows gives an empty series starting at epoch 0. An
    error names the first bad line. Memory follows the chunk and the series,
    plus 20 bytes a row.
    """
    blocks = []  # (minutes after the first row's, announcements, withdrawals) of each chunk's rows
    first = last = np.empty(0, np.int64)  # the first and the latest minute read, once a row is read

    def read_rows(rows: CsvRows) -> list[tuple]:
        nonlocal first, last
        minutes, stamp_check = rows.minutes()
        announcements, announcement_check = rows.counts(1, "announcements")
        withdrawals, withdrawal_check = rows.counts(2, "withdrawals")
        if not first.size:
            first, last = minutes[:1], minutes[:1] - 1
        index = (minutes - first) // MINUTE
        ascending = np.diff(minutes, prepend=last) > 0
        last = minutes[-1:] if minutes.size else last
        blocks.append((index.astype(np.int32), announcements, withdrawals))
        return [
            stamp_check,
            announcement_check,
            withdrawal_check,
            (~ascending, lambda i: NonMonotonic(f"timestamp {rows.text(0, i)} not after the previous row")),
            (index >= MAX_SERIES_MINUTES, lambda i: BucketCsvError(
                f"timestamp {rows.text(0, i)} exceeds the {MAX_SERIES_MINUTES}-minute series limit")),
        ]

    read_csv(stream, 3, BucketCsvError, _check_bucket_header, read_rows)
    start, n = (int(first[0]), int(last[0] - first[0]) // MINUTE + 1) if first.size else (0, 0)
    counts = np.zeros((2, n), dtype=np.int64)
    for index, announcements, withdrawals in blocks:
        counts[0, index] = announcements
        counts[1, index] = withdrawals
    return MinuteSeries(start, counts[0], counts[1])


def _check_bucket_header(header: str | None) -> None:
    if header is None:
        raise BadHeader("empty input; expected header line")
    if header != BUCKET_CSV_HEADER:
        raise BadHeader(f"expected header {BUCKET_CSV_HEADER!r}, got {header!r}")


def write_bucket_csv(series: MinuteSeries, out: TextIO) -> None:
    """Write a series to a text stream in the bucket CSV format, as :func:`write_minute_csv` does."""
    write_minute_csv(out, BUCKET_CSV_HEADER, series.start_minute_s, series.announcements, series.withdrawals)


def write_minute_csv(out: TextIO, header: str, start_minute_s: int, *columns: np.ndarray) -> None:
    """Write the header line, then one row per minute from ``start_minute_s`` (LF line endings).

    Row ``i`` holds the stamp of minute ``i`` and the ``repr`` of item ``i``
    of each equally long int64 or float64 column. Rows are rendered
    ``CSV_BLOCK_ROWS`` at a time into a ``(bytes, rows)`` uint8 matrix, NUL
    where a field is shorter than its slot, which is compacted into text
    once a block; floats go through :func:`render_decimals`. Memory follows
    the block, not the columns. Minutes reaching outside the years
    0001-9999 raise ValueError before anything is written.
    """
    n = len(columns[0])
    if n:
        format_minutes_utc([start_minute_s, start_minute_s + MINUTE * (n - 1)])
    slots = [(render_decimals, _FLOAT_TEXT) if column.dtype.kind == "f" else (_render_integers, _INT_TEXT)
             for column in columns]
    out.write(header + "\n")
    for lo in range(0, n, CSV_BLOCK_ROWS):
        size = min(CSV_BLOCK_ROWS, n - lo)
        rows = np.empty((_STAMP_LEN + sum(1 + width for _, width in slots) + 1, size), np.uint8)
        _stamp_text(start_minute_s // MINUTE + np.arange(lo, lo + size), rows[:_STAMP_LEN])
        at = _STAMP_LEN
        for column, (render, width) in zip(columns, slots):
            rows[at] = _COMMA
            render(column[lo : lo + size], rows[at + 1 : at + 1 + width])
            at += 1 + width
        rows[at] = _LF
        rows = rows.T.copy()
        out.write(rows[rows != 0].tobytes().decode("ascii"))


def csv_text(header: str, *columns) -> str:
    """The header line, then row ``i`` joining item ``i`` of the equally long string columns with commas; every
    row ends in LF."""
    return "\n".join([header, *map(",".join, zip(*columns, strict=True)), ""])


@dataclass(frozen=True)
class CsvRows:
    """The data rows of a piece of a CSV file as byte spans, as :func:`csv_rows` splits them."""

    padded: bytearray  # 25 bytes, the piece's bytes, then at least 25 more
    buf: np.ndarray  # the padded bytes as uint8
    starts: np.ndarray  # (width, rows): field j of row i is buf[starts[j, i]:ends[j, i]]
    ends: np.ndarray

    def text(self, column: int, row: int) -> str:
        return self.padded[self.starts[column, row] : self.ends[column, row]].decode()

    def minutes(self) -> tuple[np.ndarray, tuple]:
        """Epoch seconds of the stamps in column 0, and their ``(bad, error)`` check for :func:`read_csv`."""
        seconds, shaped, on_calendar = _stamp_column(self.buf, self.starts[0], self.ends[0])
        return seconds, (~(shaped & on_calendar), lambda i: _stamp_error(shaped[i], self.text(0, i)))

    def counts(self, column: int, name: str) -> tuple[np.ndarray, tuple]:
        """int64 counts of a column, and its check: a count that is not ASCII digits or exceeds int64."""
        starts, ends = self.starts[column], self.ends[column]
        lengths = ends - starts
        width = min(int(lengths.max(initial=1)), _COUNT_DIGITS)  # at least 1, for the rows of empty counts
        # (width, rows): the last bytes of each count, zeros before its start; a non-digit reads above 9
        digits = _byte_rows(self.buf, ends - width, width, _ZERO)
        np.copyto(digits, 0, where=np.arange(width)[:, None] < width - lengths)
        value = _decimal(digits, np.uint64)
        bad = (lengths == 0) | (digits > 9).any(axis=0) | (value > 2**63 - 1)
        long = np.flatnonzero(lengths > _COUNT_DIGITS)
        if long.size:  # everything before the last 19 digits must be zeros
            sizes = lengths[long] - _COUNT_DIGITS
            firsts = np.cumsum(sizes) - sizes
            at = np.repeat(starts[long] - firsts, sizes) + np.arange(sizes.sum())
            bad[long] |= ~np.logical_and.reduceat(self.buf[at] == _ZERO, firsts)
        return value.astype(np.int64), (bad, lambda i: _count_error(name, self.text(column, i)))

    def floats(self, column: int) -> tuple[np.ndarray, tuple]:
        """``float()`` of a column's UTF-8 fields, and its check: the first field that fails, NaN from there on.

        :func:`parse_decimals` reads the fields in ``repr``'s fixed form;
        ``float()`` reads the rest one at a time.
        """
        starts, ends = self.starts[column], self.ends[column]
        values, unsure = parse_decimals(self.buf, starts, ends)
        slow = np.flatnonzero(unsure)
        fields = [self.padded[lo:hi] for lo, hi in zip(starts[slow].tolist(), ends[slow].tolist())]
        bad = np.zeros(values.size, bool)
        try:  # float() reads ASCII bytes as it reads their text, and fails on any other byte
            values[slow] = np.fromiter(map(float, fields), np.float64, len(fields))
        except ValueError:
            for i, field in zip(slow.tolist(), fields):  # a failure, or text beyond ASCII such as other scripts' digits
                try:
                    values[i] = float(field.decode())
                except ValueError as exc:
                    bad[i], error = True, exc
                    values[i:] = np.nan
                    break
        return values, (bad, lambda i: error)


def read_csv(
    stream: BinaryIO, width: int, error: type[ValueError], check_header: Callable, read_rows: Callable
) -> None:
    """Read a CSV file object ``CSV_CHUNK_BYTES`` at a time and pass on its header and rows.

    Each chunk is copied once, after the bytes held from the chunks before
    it, into a buffer that keeps 25 spare bytes on either side and grows
    only for a line longer than a chunk. The bytes up to the last LF read
    go through :func:`csv_rows`; the line cut by a chunk's end moves to the
    front and waits for the next chunk. ``check_header`` gets the first
    line (None for an empty file), and ``read_rows`` the rows of each piece
    in turn; it returns ``(bad, error)`` checks of them, a boolean mask over
    the rows and a function from a row index to an exception, which
    :func:`_first_row_fault` ranks. The first ValueError is held, and
    nothing more is passed on, while the rest of the file is read: a byte
    that is not UTF-8 anywhere in the file raises ``error`` naming its line
    instead, as a whole-file decode would.
    """
    pad = _PAD
    padded = bytearray(pad + CSV_CHUNK_BYTES + pad)
    fault, lines, held, plain = None, 0, 0, True  # LF bytes passed on; bytes read but not passed on; all ASCII
    while True:
        chunk = stream.read(CSV_CHUNK_BYTES)
        plain = plain and chunk.isascii()
        top = pad + held + len(chunk)
        if top + pad > len(padded):  # a new buffer, as the rows of the last piece may still view this one
            padded = padded[: pad + held] + bytes(max(top + pad, 2 * len(padded)) - pad - held)
        padded[pad + held : top] = chunk
        end = padded.rfind(b"\n", pad + held, top) + 1 if chunk else top
        held = top - pad
        if not end:
            continue
        if not plain:
            try:
                padded[pad:end].decode("utf-8")
            except UnicodeDecodeError as exc:
                line = lines + padded.count(b"\n", pad, pad + exc.start) + 1
                raise error(f"line {line}: not UTF-8 text ({exc.reason})") from None
        if fault is None:
            try:
                header, rows, line_nos, misfit = csv_rows(padded, end - pad, width, error, lines + 1)
                if not lines:
                    check_header(header)
                _first_row_fault(line_nos, read_rows(rows), misfit)
            except ValueError as exc:
                fault = exc
        lines += int(np.count_nonzero(np.frombuffer(padded, np.uint8, end - pad, pad) == _LF))
        held = top - end
        padded[pad : pad + held] = padded[end:top]
        if not chunk:
            break
    if fault:
        raise fault


def csv_rows(padded: bytearray, size: int, width: int, error: type[ValueError], first_line: int) -> tuple:
    """Split the UTF-8 CSV bytes ``padded[25:25 + size]`` into lines numbered from ``first_line``, and rows into fields.

    ``padded`` holds at least 25 more bytes after the data, whatever they
    are. Lines end at LF, or at the end of the data; a CR just before an LF
    is dropped. Line 1 is the header. Blank lines are skipped but counted
    in line numbers. The data rows are split into ``width`` fields and stop
    before the first one without them. Returns the header (None without
    line 1), the rows, their line numbers, and that first row's ``error``.
    """
    pad = _PAD  # fixed-width reads near either end of the data stay in the buffer
    buf = np.frombuffer(padded, np.uint8)
    text = buf[pad : pad + size]
    lf = np.flatnonzero(text == _LF) + pad
    ends = lf if not size or text[-1] == _LF else np.append(lf, pad + size)
    commas = np.flatnonzero(text == _COMMA) + pad
    before = np.searchsorted(commas, ends)  # commas before each line's end
    per_line = before - np.concatenate(([0], before[:-1]))
    starts = np.concatenate(([pad], ends[:-1] + 1))[: ends.size]
    ends = ends - ((ends > starts) & (ends < pad + size) & (buf[ends - 1] == _CR))
    header = int(first_line == 1)  # lines of the data that are the header
    line_nos = np.flatnonzero(ends[header:] > starts[header:]) + header + first_line
    fields = per_line[line_nos - first_line] + 1
    misfits = np.flatnonzero(fields != width)
    misfit = None
    if misfits.size:
        cut = misfits[0]
        misfit = error(f"line {line_nos[cut]}: expected {width} fields, got {fields[cut]}")
        line_nos = line_nos[:cut]
    header_commas = int(per_line[:header].sum())
    row_commas = commas[header_commas : header_commas + (width - 1) * line_nos.size].reshape(-1, width - 1).T
    field_starts, field_ends = np.empty((2, width, line_nos.size), np.int64)
    field_starts[0], field_ends[-1] = starts[line_nos - first_line], ends[line_nos - first_line]
    np.add(row_commas, 1, out=field_starts[1:])
    field_ends[:-1] = row_commas
    header_text = padded[starts[0] : ends[0]].decode() if header and ends.size else None
    return header_text, CsvRows(padded, buf, field_starts, field_ends), line_nos, misfit


def _first_row_fault(line_nos: np.ndarray, checks: list[tuple], misfit: ValueError | None) -> None:
    """Raise the first flagged row's first failing check in the order given, with its line number, else ``misfit``."""
    flags = np.array([mask for mask, _ in checks])  # (checks, rows)
    rows = np.flatnonzero(flags.any(axis=0))
    if rows.size:
        exc = checks[int(np.argmax(flags[:, rows[0]]))][1](rows[0])
        raise type(exc)(f"line {line_nos[rows[0]]}: {exc}")
    if misfit:
        raise misfit


def _count_error(name: str, text: str) -> BucketCsvError:
    digits = text.removeprefix("-")
    if digits != text and digits.isascii() and digits.isdigit() and digits.strip("0"):
        return NegativeCount(f"negative {name}: -{digits.lstrip('0')}")
    if text.isascii() and text.isdigit():
        return BucketCsvError(f"{name} exceeds int64: {text!r}")
    return BucketCsvError(f"{name} is not an integer: {text!r}")
