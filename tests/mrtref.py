"""Record-at-a-time MRT parser, the reference for the batched parser's tests.

A direct transcription of RFC 6396 / RFC 4271 field by field: one Python
step per record and per prefix. ``bgpnovelty.mrt.parse_mrt_stream`` must
return the same rows, and raise the same error at the same byte offset, on
every input.
"""

from __future__ import annotations

import struct

from bgpnovelty.mrt import (
    AFI_IPV4,
    AFI_IPV6,
    BGP4MP_MESSAGE,
    BGP4MP_MESSAGE_AS4,
    BGP_HEADER_LEN,
    BGP_TYPE_UPDATE,
    MRT_HEADER_LEN,
    MRT_TYPE_BGP4MP,
    MRT_TYPE_BGP4MP_ET,
    MalformedPrefix,
    TruncatedRecord,
)


def reference_parse(data: bytes) -> list[tuple[int, int, int]]:
    """``(timestamp_s, announced, withdrawn)`` per UPDATE; raises at the first fault."""
    records: list[tuple[int, int, int]] = []
    n = len(data)
    offset = 0
    while offset < n:
        if n - offset < MRT_HEADER_LEN:
            raise TruncatedRecord("stream ends inside an MRT header", offset)
        timestamp, mrt_type, subtype, length = struct.unpack_from(">IHHI", data, offset)
        body_start = offset + MRT_HEADER_LEN
        if n - body_start < length:
            raise TruncatedRecord("declared record length overruns the stream", offset)
        if (
            mrt_type in (MRT_TYPE_BGP4MP, MRT_TYPE_BGP4MP_ET)
            and subtype in (BGP4MP_MESSAGE, BGP4MP_MESSAGE_AS4)
        ):
            record = _parse_bgp4mp_message(
                data,
                body_start,
                length,
                timestamp,
                extended_time=(mrt_type == MRT_TYPE_BGP4MP_ET),
                as4=(subtype == BGP4MP_MESSAGE_AS4),
            )
            if record is not None:
                records.append(record)
        offset = body_start + length
    return records


def _parse_bgp4mp_message(
    data: bytes,
    start: int,
    length: int,
    timestamp: int,
    extended_time: bool,
    as4: bool,
) -> tuple[int, int, int] | None:
    """Parse one BGP4MP(_ET) MESSAGE record body; None when not an UPDATE."""
    offset = start
    end = start + length
    if extended_time:
        # Microsecond extension: bucketing is per-minute, so truncate to
        # whole seconds by ignoring it.
        if end - offset < 4:
            raise TruncatedRecord("BGP4MP_ET microsecond field truncated", offset)
        offset += 4

    as_size = 4 if as4 else 2
    fixed = 2 * as_size + 2 + 2  # peer AS, local AS, interface index, AFI
    if end - offset < fixed:
        raise TruncatedRecord("BGP4MP message header truncated", offset)
    (afi,) = struct.unpack_from(">H", data, offset + 2 * as_size + 2)
    offset += fixed

    if afi == AFI_IPV4:
        addr_size = 4
    elif afi == AFI_IPV6:
        addr_size = 16
    else:
        # Unknown address family: the BGP message cannot be located, but the
        # record length still tells us where the next record starts.
        return None
    if end - offset < 2 * addr_size:
        raise TruncatedRecord("BGP4MP peer addresses truncated", offset)
    offset += 2 * addr_size

    if end - offset < BGP_HEADER_LEN:
        raise TruncatedRecord("BGP message header truncated", offset)
    (msg_len,) = struct.unpack_from(">H", data, offset + 16)
    msg_type = data[offset + 18]
    if msg_len < BGP_HEADER_LEN:
        raise TruncatedRecord("BGP message length below header size", offset)
    if offset + msg_len > end:
        raise TruncatedRecord("BGP message overruns its MRT record", offset)
    if msg_type != BGP_TYPE_UPDATE:
        return None
    return _parse_update_body(data, offset + BGP_HEADER_LEN, msg_len - BGP_HEADER_LEN, timestamp)


def _parse_update_body(data: bytes, start: int, length: int, timestamp: int) -> tuple[int, int, int]:
    offset = start
    end = start + length
    if end - offset < 2:
        raise TruncatedRecord("withdrawn-routes length field truncated", offset)
    (withdrawn_len,) = struct.unpack_from(">H", data, offset)
    offset += 2
    if offset + withdrawn_len > end:
        raise TruncatedRecord("withdrawn-routes field overruns the UPDATE", offset)
    withdrawn = _count_prefixes(data, offset, withdrawn_len)
    offset += withdrawn_len

    if end - offset < 2:
        raise TruncatedRecord("path-attribute length field truncated", offset)
    (attr_len,) = struct.unpack_from(">H", data, offset)
    offset += 2
    if offset + attr_len > end:
        raise TruncatedRecord("path attributes overrun the UPDATE", offset)
    offset += attr_len  # attribute semantics are out of scope

    announced = _count_prefixes(data, offset, end - offset)
    return (timestamp, announced, withdrawn)


def _count_prefixes(data: bytes, start: int, length: int) -> int:
    """Count (length-octet, ceil(length/8) octets) prefix entries in a field."""
    offset = start
    end = start + length
    count = 0
    while offset < end:
        prefix_bits = data[offset]
        if prefix_bits > 32:
            raise MalformedPrefix(f"prefix length {prefix_bits} exceeds 32 bits", offset)
        prefix_bytes = (prefix_bits + 7) // 8
        if offset + 1 + prefix_bytes > end:
            raise MalformedPrefix("prefix bytes overrun the field", offset)
        offset += 1 + prefix_bytes
        count += 1
    return count
