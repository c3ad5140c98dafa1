"""Hand-built MRT/BGP byte fixtures, assembled field by field.

These builders are the oracle for the parser tests: each fixture's expected
counts follow directly from the arguments used to construct it, never from
running the parser.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from bgpnovelty.mrt import parse_mrt_stream

MARKER = b"\xff" * 16


def parse_bytes(data: bytes) -> np.ndarray:
    """``parse_mrt_stream`` over an in-memory stream of ``data``."""
    return parse_mrt_stream(io.BytesIO(data))


def prefix(bits: int, *octets: int) -> bytes:
    """One NLRI entry: a length octet followed by ceil(bits/8) octets."""
    expected = (bits + 7) // 8
    assert len(octets) == expected, f"prefix /{bits} needs {expected} octets"
    return bytes([bits, *octets])


def bgp_update(withdrawn: bytes = b"", attrs: bytes = b"", nlri: bytes = b"") -> bytes:
    """A BGP UPDATE message: marker, length, type 2, then the three fields."""
    body = (
        struct.pack(">H", len(withdrawn))
        + withdrawn
        + struct.pack(">H", len(attrs))
        + attrs
        + nlri
    )
    return MARKER + struct.pack(">HB", 19 + len(body), 2) + body


def bgp_keepalive() -> bytes:
    return MARKER + struct.pack(">HB", 19, 4)


def bgp4mp_body(message: bytes, as4: bool = False, afi: int = 1) -> bytes:
    """BGP4MP MESSAGE body: peer/local AS, ifindex, AFI, two addresses, message."""
    as_fmt = ">IIHH" if as4 else ">HHHH"
    header = struct.pack(as_fmt, 65001, 65002, 0, afi)
    addr_len = 16 if afi == 2 else 4
    return header + b"\x0a" * addr_len + b"\x0b" * addr_len + message


def mrt_record(mrt_type: int, subtype: int, body: bytes, timestamp: int = 994601400) -> bytes:
    """Common MRT header (timestamp, type, subtype, length) plus the body."""
    return struct.pack(">IHHI", timestamp, mrt_type, subtype, len(body)) + body


def bgp4mp_message_record(
    message: bytes,
    mrt_type: int = 16,
    subtype: int = 1,
    afi: int = 1,
    timestamp: int = 994601400,
    microseconds: int = 0,
) -> bytes:
    """Any MRT type and subtype around a BGP4MP MESSAGE body.

    The body has the AS4 layout for subtype 4 and the microsecond field for
    type 17 (BGP4MP_ET), as a parser reading those headers expects.
    """
    body = bgp4mp_body(message, as4=subtype == 4, afi=afi)
    if mrt_type == 17:
        body = struct.pack(">I", microseconds) + body
    return mrt_record(mrt_type, subtype, body, timestamp)


def bgp4mp_update_record(
    timestamp: int = 994601400,
    n_announced: int = 2,
    n_withdrawn: int = 1,
    as4: bool = False,
    extended: bool = False,
    microseconds: int = 0,
    afi: int = 1,
) -> bytes:
    """A full MRT record wrapping an UPDATE with simple /24 and /16 prefixes."""
    nlri = b"".join(prefix(24, 10, i, 0) for i in range(n_announced))
    withdrawn = b"".join(prefix(16, 172, 16 + i) for i in range(n_withdrawn))
    message = bgp_update(withdrawn=withdrawn, nlri=nlri)
    body = bgp4mp_body(message, as4=as4, afi=afi)
    if extended:
        body = struct.pack(">I", microseconds) + body
        return mrt_record(17, 4 if as4 else 1, body, timestamp)
    return mrt_record(16, 4 if as4 else 1, body, timestamp)


def table_dump_record(timestamp: int = 994601400) -> bytes:
    """An MRT TABLE_DUMP (type 12) record; content is irrelevant to the parser."""
    return mrt_record(12, 1, b"\x00" * 20, timestamp)


def state_change_record(timestamp: int = 994601400) -> bytes:
    """BGP4MP STATE_CHANGE (subtype 0): peer header plus old/new FSM states."""
    body = struct.pack(">HHHH", 65001, 65002, 0, 1) + b"\x0a" * 4 + b"\x0b" * 4
    body += struct.pack(">HH", 6, 1)
    return mrt_record(16, 0, body, timestamp)


def keepalive_record(timestamp: int = 994601400) -> bytes:
    """A BGP4MP MESSAGE record whose inner BGP message is a KEEPALIVE."""
    return mrt_record(16, 1, bgp4mp_body(bgp_keepalive()), timestamp)


def attrs_only_update_record(timestamp: int = 994601400) -> bytes:
    """UPDATE carrying only path attributes: zero prefixes both ways."""
    # ORIGIN attribute: flags 0x40, type 1, length 1, value 0 (IGP)
    attrs = bytes([0x40, 0x01, 0x01, 0x00])
    return mrt_record(16, 1, bgp4mp_body(bgp_update(attrs=attrs)), timestamp)


# (name, stream bytes, expected (timestamp, announced, withdrawn) tuples)
CORPUS: list[tuple[str, bytes, list[tuple[int, int, int]]]] = [
    (
        "subtype1_two_announced_one_withdrawn",
        bgp4mp_update_record(timestamp=100_020, n_announced=2, n_withdrawn=1),
        [(100_020, 2, 1)],
    ),
    (
        "subtype4_as4_three_announced",
        bgp4mp_update_record(timestamp=100_080, n_announced=3, n_withdrawn=0, as4=True),
        [(100_080, 3, 0)],
    ),
    (
        "extended_time_microseconds_truncated",
        bgp4mp_update_record(
            timestamp=100_140, n_announced=1, n_withdrawn=2, extended=True, microseconds=999_999
        ),
        [(100_140, 1, 2)],
    ),
    (
        "attrs_only_update_counts_zero",
        attrs_only_update_record(timestamp=100_200),
        [(100_200, 0, 0)],
    ),
    (
        "table_dump_skipped",
        table_dump_record(),
        [],
    ),
    (
        "state_change_skipped",
        state_change_record(),
        [],
    ),
    (
        "keepalive_skipped",
        keepalive_record(),
        [],
    ),
    (
        "mixed_stream_filters_to_updates",
        table_dump_record()
        + bgp4mp_update_record(timestamp=100_260, n_announced=4, n_withdrawn=4)
        + keepalive_record()
        + bgp4mp_update_record(timestamp=100_320, n_announced=0, n_withdrawn=5, as4=True),
        [(100_260, 4, 4), (100_320, 0, 5)],
    ),
]
