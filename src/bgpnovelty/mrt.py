"""Batched parser for MRT route-collector dumps (BGP message subset).

Walks a concatenation of MRT records (big-endian common header: 4-octet
timestamp, 2-octet type, 2-octet subtype, 4-octet length) and emits one
``(timestamp_s, announced, withdrawn)`` row per BGP UPDATE message found in
BGP4MP (type 16) and BGP4MP_ET (type 17) records of the MESSAGE subtypes
(1 and 4). Everything else a collector interleaves — table dumps, state
changes, other protocols, unknown address families, non-UPDATE messages —
is skipped silently.

Counts are prefix counts, not message counts: ``announced`` is the number of
entries in the classic NLRI field, ``withdrawn`` the number of entries in the
Withdrawn Routes field. Multiprotocol prefixes (MP_REACH_NLRI /
MP_UNREACH_NLRI) ride inside path attributes and are not decoded; an UPDATE
carrying only attributes yields a (t, 0, 0) row.

One Python loop walks the common headers and collects the record offsets.
The bodies are then decoded with numpy over the whole buffer,
``BLOCK_RECORDS`` records at a time, so temporary memory does not grow with
the dump.
"""

from __future__ import annotations

import struct
from array import array

import numpy as np

from .series import first_fault

MRT_HEADER_LEN = 12

MRT_TYPE_BGP4MP = 16
MRT_TYPE_BGP4MP_ET = 17

# Subtypes carrying a raw BGP message (16-bit and 32-bit AS header variants).
BGP4MP_MESSAGE = 1
BGP4MP_MESSAGE_AS4 = 4

AFI_IPV4 = 1
AFI_IPV6 = 2

BGP_HEADER_LEN = 19  # 16-octet marker + 2-octet length + 1-octet type
BGP_TYPE_UPDATE = 2

BLOCK_RECORDS = 4096  # records decoded per numpy pass

_RECORD_LENGTH = struct.Struct(">I")


class MrtParseError(ValueError):
    """Parse failure; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class TruncatedRecord(MrtParseError):
    """Stream ends mid-record, or a declared length overruns the buffer."""


class MalformedPrefix(MrtParseError):
    """Prefix length above 32 bits, or prefix bytes overrun their field."""


def parse_mrt_stream(data: bytes) -> np.ndarray:
    """Parse a byte stream of MRT records into UPDATE count rows.

    Returns an ``(n, 3)`` int64 array of ``(timestamp_s, announced,
    withdrawn)`` rows, one per UPDATE, in stream order. Pure function of the
    input bytes: parsing a concatenation of two streams equals concatenating
    the two parses.

    Raises TruncatedRecord / MalformedPrefix with the byte offset of the
    first fault in stream order; either aborts the parse.
    """
    starts, tail_fault = _walk_headers(data)
    buf = np.frombuffer(data, dtype=np.uint8)
    starts = np.frombuffer(starts, dtype=np.int64)
    blocks = [np.empty((0, 3), dtype=np.int64)]
    for lo in range(0, starts.size, BLOCK_RECORDS):
        blocks.append(_decode_block(buf, starts[lo : lo + BLOCK_RECORDS]))
    if tail_fault is not None:
        raise tail_fault
    return np.concatenate(blocks)


def _walk_headers(data: bytes) -> tuple[array, MrtParseError | None]:
    """Start offsets of the whole records, and the fault that cuts the stream short."""
    starts = array("q")
    append = starts.append
    unpack_length = _RECORD_LENGTH.unpack_from
    n = len(data)
    offset = 0
    while offset < n:
        if n - offset < MRT_HEADER_LEN:
            return starts, TruncatedRecord("stream ends inside an MRT header", offset)
        (length,) = unpack_length(data, offset + 8)
        if n - offset - MRT_HEADER_LEN < length:
            return starts, TruncatedRecord("declared record length overruns the stream", offset)
        append(offset)
        offset += MRT_HEADER_LEN + length
    return starts, None


def _decode_block(buf: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """UPDATE rows of the whole records at ``starts``; raises the block's first fault.

    ``live`` marks the records still being decoded. Each check flags the live
    records that fail it and drops them from ``live``; reads for records
    that are not live may land anywhere in the buffer and are never used.
    """

    def field(pos: np.ndarray, width: int) -> np.ndarray:
        value = np.zeros(pos.shape, dtype=np.int64)
        for k in range(width):
            value = (value << 8) | buf.take(pos + k, mode="clip")
        return value

    checks: list[tuple[np.ndarray, object]] = []  # (flagged records, record index -> error), in record order

    def check(live: np.ndarray, short: np.ndarray, message: str, at: np.ndarray) -> np.ndarray:
        checks.append((live & short, lambda i: TruncatedRecord(message, int(at[i]))))
        return live & ~short

    timestamp = field(starts, 4)
    mrt_type = field(starts + 4, 2)
    subtype = field(starts + 6, 2)
    pos = starts + MRT_HEADER_LEN
    end = pos + field(starts + 8, 4)
    extended = mrt_type == MRT_TYPE_BGP4MP_ET
    as4 = subtype == BGP4MP_MESSAGE_AS4
    live = ((mrt_type == MRT_TYPE_BGP4MP) | extended) & ((subtype == BGP4MP_MESSAGE) | as4)

    # Microsecond extension: bucketing is per-minute, so it is skipped.
    live = check(live, extended & (end - pos < 4), "BGP4MP_ET microsecond field truncated", pos)
    pos = pos + 4 * extended
    as_size = np.where(as4, 4, 2)
    live = check(live, end - pos < 2 * as_size + 4, "BGP4MP message header truncated", pos)
    afi = field(pos + 2 * as_size + 2, 2)
    pos = pos + 2 * as_size + 4
    # Unknown address family: the BGP message cannot be located, so the record is skipped.
    live &= (afi == AFI_IPV4) | (afi == AFI_IPV6)
    addr_size = np.where(afi == AFI_IPV4, 4, 16)
    live = check(live, end - pos < 2 * addr_size, "BGP4MP peer addresses truncated", pos)
    pos = pos + 2 * addr_size

    live = check(live, end - pos < BGP_HEADER_LEN, "BGP message header truncated", pos)
    msg_len = field(pos + 16, 2)
    live = check(live, msg_len < BGP_HEADER_LEN, "BGP message length below header size", pos)
    live = check(live, pos + msg_len > end, "BGP message overruns its MRT record", pos)
    live &= buf.take(pos + 18, mode="clip") == BGP_TYPE_UPDATE
    end = pos + msg_len
    pos = pos + BGP_HEADER_LEN

    live = check(live, end - pos < 2, "withdrawn-routes length field truncated", pos)
    withdrawn_len = field(pos, 2)
    pos = pos + 2
    live = check(live, pos + withdrawn_len > end, "withdrawn-routes field overruns the UPDATE", pos)
    withdrawn_start = np.where(live, pos, pos + withdrawn_len)  # a closed field starts at its end
    withdrawn_end = pos + withdrawn_len
    withdrawn_rank = len(checks)  # withdrawn-prefix faults rank here
    pos = pos + withdrawn_len
    live = check(live, end - pos < 2, "path-attribute length field truncated", pos)
    attr_len = field(pos, 2)
    pos = pos + 2
    live = check(live, pos + attr_len > end, "path attributes overrun the UPDATE", pos)
    pos = pos + attr_len  # attribute semantics are out of scope

    count, fault = _count_prefixes(
        buf, np.concatenate((withdrawn_start, np.where(live, pos, end))), np.concatenate((withdrawn_end, end))
    )
    (withdrawn, announced), (withdrawn_fault, announced_fault) = np.split(count, 2), np.split(fault, 2)
    checks.insert(withdrawn_rank, (withdrawn_fault >= 0, lambda i: _prefix_error(buf, int(withdrawn_fault[i]))))
    checks.append((announced_fault >= 0, lambda i: _prefix_error(buf, int(announced_fault[i]))))

    fault = first_fault(checks)
    if fault:
        raise fault[1]
    return np.column_stack((timestamp[live], announced[live], withdrawn[live]))


def _count_prefixes(buf: np.ndarray, cursor: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Count the (length-octet, ceil(length/8) octets) prefix entries of each field.

    Field ``j`` spans ``[cursor[j], end[j])``. All fields advance in
    lockstep, one prefix position per step, over the fields still open.
    Returns the counts and the offset of each field's bad prefix (-1 for none).
    """
    cursor = cursor.copy()
    count = np.zeros(cursor.size, dtype=np.int64)
    fault = np.full(cursor.size, -1, dtype=np.int64)
    stepping = np.flatnonzero(cursor < end)
    while stepping.size:
        at = cursor[stepping]
        bits = buf[at].astype(np.int64)
        after = at + 1 + (bits + 7) // 8
        bad = (bits > 32) | (after > end[stepping])
        fault[stepping[bad]] = at[bad]
        cursor[stepping] = after
        count[stepping] += 1
        stepping = stepping[~bad & (after < end[stepping])]
    return count, fault


def _prefix_error(buf: np.ndarray, at: int) -> MalformedPrefix:
    if buf[at] > 32:
        return MalformedPrefix(f"prefix length {int(buf[at])} exceeds 32 bits", at)
    return MalformedPrefix("prefix bytes overrun the field", at)
