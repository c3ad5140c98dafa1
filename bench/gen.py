"""Seeded benchmark inputs: an MRT dump and bucket-CSV minute series.

Every input is a pure function of the seed. Sizes (bytes, records, minutes)
do not depend on the seed; only contents and timing do, so runs with
different seeds do the same amount of work and their per-layer counts match.

The MRT record layouts mirror the hand-built fixtures the parser tests use
(RFC 6396 common header; BGP4MP and BGP4MP_ET MESSAGE bodies with 2- or
4-octet AS numbers and IPv4 or IPv6 peer addresses).
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass

import numpy as np

from bgpnovelty import synth
from bgpnovelty.series import MinuteSeries

START_S = 995_500_800  # 2001-07-19T00:00:00Z
MINUTE = 60

# MRT dump shape. The counts are fixed so every seed yields the same bytes
# and records; the seed moves timestamps, prefix octets and the outage.
MRT_MINUTES = 2_880
OUTAGE_MINUTES = 90
N_UPDATES = 60_000
N_KEEPALIVES = 6_000
N_STATE_CHANGES = 1_500
N_TABLE_DUMPS = 500
MAX_ANNOUNCED = 8
MAX_WITHDRAWN = 4
PREFIX_BITS = (24, 16, 22, 19, 32, 8, 20, 23, 12)

MARKER = b"\xff" * 16
TYPE_TABLE_DUMP = 12
TYPE_BGP4MP = 16
TYPE_BGP4MP_ET = 17
SUBTYPE_STATE_CHANGE = 0
SUBTYPE_MESSAGE = 1
SUBTYPE_MESSAGE_AS4 = 4
SUBTYPE_STATE_CHANGE_AS4 = 5

# (announced, withdrawn) prefix counts per UPDATE: every pair with at least
# one prefix, cycled over the UPDATE slots.
_PREFIX_PAIRS = [
    (a, w) for a in range(MAX_ANNOUNCED + 1) for w in range(MAX_WITHDRAWN + 1) if a + w
]

# Series shape shared by the series workloads (acceptance-suite traffic).
MEAN_A = 1000.0
MEAN_W = 300.0
DIURNAL = 0.2
WEEK_MINUTES = 7 * 1440
MONTH_MINUTES = 30 * 1440
SURGE_MAGNITUDE = 10.0


@dataclass(frozen=True)
class MrtDump:
    """The dump bytes plus the per-minute prefix counts a correct parse yields."""

    data: bytes
    start_minute_s: int
    announced: np.ndarray
    withdrawn: np.ndarray
    records: int
    updates: int
    outage_first: int  # minute index of the first outage minute


def _mrt_record(mrt_type: int, subtype: int, body: bytes, timestamp: int) -> bytes:
    return struct.pack(">IHHI", timestamp, mrt_type, subtype, len(body)) + body


def _peer_header(as4: bool, afi: int) -> bytes:
    fixed = struct.pack(">IIHH" if as4 else ">HHHH", 65001, 65002, 0, afi)
    addr_len = 16 if afi == 2 else 4
    return fixed + b"\x0a" * addr_len + b"\x0b" * addr_len


def _bgp_message(msg_type: int, body: bytes) -> bytes:
    return MARKER + struct.pack(">HB", 19 + len(body), msg_type) + body


def _prefixes(count: int, first: int, pool: memoryview, cursor: int) -> tuple[bytes, int]:
    parts = []
    for j in range(count):
        bits = PREFIX_BITS[(first + j) % len(PREFIX_BITS)]
        size = (bits + 7) // 8
        parts.append(bytes([bits]) + pool[cursor : cursor + size])
        cursor += size
    return b"".join(parts), cursor


def _attributes(as4: bool) -> bytes:
    asn = ">I" if as4 else ">H"
    path = bytes([2, 3]) + b"".join(struct.pack(asn, a) for a in (65001, 3356, 701))
    return (
        bytes([0x40, 1, 1, 0])  # ORIGIN IGP
        + bytes([0x40, 2, len(path)]) + path  # AS_PATH, one AS_SEQUENCE
        + bytes([0x40, 3, 4, 192, 0, 2, 1])  # NEXT_HOP
    )


def _update_record(slot: int, timestamp: int, micros: int, pool, cursor: int):
    """UPDATE number ``slot``; its shape depends on the slot, never on the seed."""
    announced, withdrawn = _PREFIX_PAIRS[slot % len(_PREFIX_PAIRS)]
    as4 = slot % 2 == 1
    extended = slot // 2 % 2 == 1
    afi = 2 if slot // 4 % 4 == 0 else 1
    wd_field, cursor = _prefixes(withdrawn, slot, pool, cursor)
    nlri, cursor = _prefixes(announced, slot + 3, pool, cursor)
    attrs = _attributes(as4) if announced else b""
    update = _bgp_message(
        2, struct.pack(">H", len(wd_field)) + wd_field + struct.pack(">H", len(attrs)) + attrs + nlri
    )
    body = _peer_header(as4, afi) + update
    subtype = SUBTYPE_MESSAGE_AS4 if as4 else SUBTYPE_MESSAGE
    if extended:
        return _mrt_record(TYPE_BGP4MP_ET, subtype, struct.pack(">I", micros) + body, timestamp), cursor
    return _mrt_record(TYPE_BGP4MP, subtype, body, timestamp), cursor


def _other_record(index: int, timestamp: int) -> bytes:
    """KEEPALIVE messages, peer state changes and TABLE_DUMP entries, in turn."""
    if index < N_KEEPALIVES:
        as4 = index % 2 == 1
        subtype = SUBTYPE_MESSAGE_AS4 if as4 else SUBTYPE_MESSAGE
        return _mrt_record(TYPE_BGP4MP, subtype, _peer_header(as4, 1) + _bgp_message(4, b""), timestamp)
    index -= N_KEEPALIVES
    if index < N_STATE_CHANGES:
        as4 = index % 2 == 1
        subtype = SUBTYPE_STATE_CHANGE_AS4 if as4 else SUBTYPE_STATE_CHANGE
        body = _peer_header(as4, 1) + struct.pack(">HH", 6, 1)  # Established -> Idle
        return _mrt_record(TYPE_BGP4MP, subtype, body, timestamp)
    # TABLE_DUMP (AFI IPv4): view, sequence, prefix, length, status,
    # originated time, peer address, peer AS, empty attributes.
    body = struct.pack(">HH4sBBI4sHH", 0, index, b"\x0a\x00\x00\x00", 8, 1, timestamp, b"\x0b" * 4, 65001, 0)
    return _mrt_record(TYPE_TABLE_DUMP, 1, body, timestamp)


def mrt_dump(seed: int) -> MrtDump:
    """A two-day collector dump with one collector-outage gap, in time order."""
    rng = np.random.default_rng(seed)
    outage_first = int(rng.integers(300, MRT_MINUTES - 300 - OUTAGE_MINUTES))
    outage = np.arange(outage_first, outage_first + OUTAGE_MINUTES)
    live = np.setdiff1d(np.arange(MRT_MINUTES), outage)
    n_other = N_KEEPALIVES + N_STATE_CHANGES + N_TABLE_DUMPS
    n_records = N_UPDATES + n_other
    minutes = rng.choice(live, size=n_records)
    minutes[0], minutes[1] = 0, MRT_MINUTES - 1  # UPDATEs pin the dump's range
    timestamps = START_S + MINUTE * minutes + rng.integers(0, MINUTE, size=n_records)
    micros = rng.integers(0, 1_000_000, size=N_UPDATES)
    # Prefix octets: enough for every prefix at its widest (4 octets).
    pool = memoryview(rng.bytes(4 * (MAX_ANNOUNCED + MAX_WITHDRAWN) * N_UPDATES))

    announced = np.zeros(MRT_MINUTES, dtype=np.int64)
    withdrawn = np.zeros(MRT_MINUTES, dtype=np.int64)
    records: list[bytes | None] = [None] * n_records
    cursor = 0
    for slot in range(N_UPDATES):
        records[slot], cursor = _update_record(slot, int(timestamps[slot]), int(micros[slot]), pool, cursor)
        a, w = _PREFIX_PAIRS[slot % len(_PREFIX_PAIRS)]
        announced[minutes[slot]] += a
        withdrawn[minutes[slot]] += w
    for index in range(n_other):
        records[N_UPDATES + index] = _other_record(index, int(timestamps[N_UPDATES + index]))
    order = np.argsort(timestamps, kind="stable")
    return MrtDump(
        data=b"".join(records[i] for i in order),
        start_minute_s=START_S,
        announced=announced,
        withdrawn=withdrawn,
        records=n_records,
        updates=N_UPDATES,
        outage_first=outage_first,
    )


def quiet_series(minutes: int, seed: int) -> MinuteSeries:
    return synth.gen_baseline(minutes, MEAN_A, MEAN_W, DIURNAL, seed=seed, start_minute_s=START_S)


def surge(series: MinuteSeries, minute_index: int, duration: int, shape: str) -> MinuteSeries:
    spec = synth.SurgeSpec(series.minute_at(minute_index), duration, shape, SURGE_MAGNITUDE)
    return synth.inject_surge(series, spec)


def format_minute(minute_s: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:00Z", time.gmtime(minute_s))


def bucket_csv(series: MinuteSeries, first: int = 0, stop: int | None = None) -> str:
    """Rows ``first``..``stop`` of a series in the bucket-CSV format."""
    stop = len(series) if stop is None else stop
    lines = ["minute_utc,announcements,withdrawals"]
    lines.extend(
        f"{format_minute(series.minute_at(i))},{series.announcements[i]},{series.withdrawals[i]}"
        for i in range(first, stop)
    )
    return "\n".join(lines) + "\n"
