"""Batched parser for MRT route-collector dumps (BGP message subset).

Walks a concatenation of MRT records (big-endian common header: 4-octet
timestamp, 2-octet type, 2-octet subtype, 4-octet length) and emits one
``(timestamp_s, announced, withdrawn)`` row per BGP UPDATE message found in
BGP4MP (type 16) and BGP4MP_ET (type 17) records of the MESSAGE subtypes
(1 and 4). Everything else a collector interleaves — table dumps, state
changes, other protocols, unknown address families, non-UPDATE messages —
is skipped, and skipped records are not counted yet.

Counts are prefix counts, not message counts: ``announced`` is the number of
entries in the classic NLRI field, ``withdrawn`` the number of entries in the
Withdrawn Routes field. Multiprotocol prefixes (MP_REACH_NLRI /
MP_UNREACH_NLRI) ride inside path attributes and are not decoded; an UPDATE
carrying only attributes yields a (t, 0, 0) row.

The dump is read from a file object ``CHUNK_BYTES`` (512 KiB) at a time,
and a dump that starts with gzip's or bzip2's whole magic
(:func:`compression`) is decompressed in the same loop, at most
``CHUNK_BYTES`` a step. One Python loop walks the common headers of each
chunk, and the whole records found are decoded with numpy in one pass, a
fixed run of numpy calls plus a few more for each prefix of the chunk's
longest prefix field; a record cut by the chunk's end is carried into the
next chunk. A pass sees a chunk and at most one carried record, and so
about ``CHUNK_BYTES / 12`` records at most. It holds about 160 bytes a
record at its peak, in the prefix count, so a chunk of bare 12-byte
records peaks near 11 chunks. Memory follows the chunk and the longest
record, plus the 24-byte row of each UPDATE, not the dump.
"""

from __future__ import annotations

import bz2
import functools
import struct
import zlib
from typing import BinaryIO, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

CHUNK_BYTES = 1 << 19  # bytes read from the stream, and at most decompressed, per step

GZIP = "gzip"
BZIP2 = "bzip2"
# gzip: ID bytes, then method 8 (deflate). bzip2: "BZh", a level 1-9, then a block's or the end of stream's magic.
_BZIP2_MAGIC = tuple(b"BZh%c" % level + block for level in b"123456789" for block in (b"1AY&SY", b"\x17rE8P\x90"))
_MAGIC = {GZIP: (b"\x1f\x8b\x08",), BZIP2: _BZIP2_MAGIC}
# A fresh decompressor for one member of each format; zlib's wbits 16 + 15 takes a gzip header and trailer.
_DECOMPRESSORS = {GZIP: functools.partial(zlib.decompressobj, 31), BZIP2: bz2.BZ2Decompressor}

_RECORD_LENGTH = struct.Struct(">8xI")  # the length field, after timestamp, type and subtype


class MrtParseError(ValueError):
    """Parse failure; ``offset`` is the byte position of the fault in the stream."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class TruncatedRecord(MrtParseError):
    """Stream ends mid-record, or a declared length overruns the stream."""


class MalformedPrefix(MrtParseError):
    """Prefix length above 32 bits, or prefix bytes overrun their field."""


class UnreadableStream(MrtParseError):
    """A read of the stream failed, or a gzip or bzip2 dump is truncated or corrupt.

    ``offset`` counts the bytes, decompressed where the dump is compressed,
    that were read before the fault: every record before it was parsed.
    """


def compression(head: bytes) -> str | None:
    """:data:`GZIP` or :data:`BZIP2` when ``head``, a dump's first 10 bytes, starts with its whole magic, else None."""
    return next((name for name, magic in _MAGIC.items() if head.startswith(magic)), None)


def parse_mrt_stream(stream: BinaryIO, compressed: str | None = None) -> np.ndarray:
    """Parse a binary file object of MRT records into UPDATE count rows.

    Reads ``stream`` to its end, ``CHUNK_BYTES`` at a time, and returns an
    ``(n, 3)`` int64 array of ``(timestamp_s, announced, withdrawn)`` rows,
    one per UPDATE, in stream order. The result is a pure function of the
    stream's bytes, whatever the chunk size: parsing a concatenation of two
    streams equals concatenating the two parses. With ``compressed`` set to
    :data:`GZIP` or :data:`BZIP2`, the stream holds the records in that
    format, as one member or several concatenated ones.

    Raises TruncatedRecord / MalformedPrefix with the stream byte offset of
    the first fault in stream order; either aborts the parse. A record cut
    short by the end of the stream is reported only once the stream is read
    to its end. A read that fails, or compressed bytes that do not decode
    to their end, raise UnreadableStream.
    """
    blocks = [np.empty((0, 3), dtype=np.int64)]
    pieces: list[bytes] = []  # read but not yet walked: a cut record, then whole chunks
    held = 0  # bytes in pieces
    want = MRT_HEADER_LEN  # bytes held before a walk can complete a record
    base = 0  # stream offset of the first held byte
    chunks = iter(lambda: stream.read(CHUNK_BYTES), b"") if compressed is None else _decompressed(stream, compressed)
    while chunk := _next(chunks, base + held):
        pieces.append(chunk)
        held += len(chunk)
        if held < want:
            continue
        data = b"".join(pieces)
        starts, stop = _walk_headers(data)
        blocks.append(_decode_block(np.frombuffer(data, dtype=np.uint8), starts, base))
        pieces = [data[stop:]]
        held = len(data) - stop
        want = MRT_HEADER_LEN + (_RECORD_LENGTH.unpack_from(data, stop)[0] if held >= MRT_HEADER_LEN else 0)
        base += stop
    if held:
        if held < MRT_HEADER_LEN:
            raise TruncatedRecord("stream ends inside an MRT header", base)
        raise TruncatedRecord("declared record length overruns the stream", base)
    return np.concatenate(blocks)


def _next(chunks: Iterator[bytes], offset: int) -> bytes:
    """The next chunk, empty at the end; a failed read or decode raises UnreadableStream at ``offset``."""
    try:
        return next(chunks, b"")
    except (EOFError, OSError, zlib.error) as exc:  # what the codecs raise for a truncated or corrupt stream
        raise UnreadableStream(f"cannot read the dump: {exc}", offset) from None


def _decompressed(stream: BinaryIO, compressed: str) -> Iterator[bytes]:
    """The decompressed bytes of a gzip or bzip2 stream, at most ``CHUNK_BYTES`` a piece, member after member.

    A decompressor stops at the end of its member, so a fresh one takes the
    bytes after it, as GzipFile and BZ2File do for concatenated files; bytes
    after the last member must start another. zlib keeps the input it had no
    room to decode in ``unconsumed_tail``; bz2 keeps it inside, and says so
    by ``needs_input``.
    """
    new = _DECOMPRESSORS[compressed]
    decoder, fresh, data = new(), True, b""
    while True:
        if decoder.eof:
            decoder, fresh, data = new(), True, decoder.unused_data
        if not data and getattr(decoder, "needs_input", True):
            data = stream.read(CHUNK_BYTES)
            if not data and fresh:
                return
        out = decoder.decompress(data, CHUNK_BYTES)
        fed, fresh, data = data, False, getattr(decoder, "unconsumed_tail", b"")
        if out:
            yield out
        elif not fed and not decoder.eof:
            raise EOFError("compressed dump ended before the end-of-stream marker was reached")


def _walk_headers(data: bytes) -> tuple[np.ndarray, int]:
    """Start offsets of the whole records in ``data``, and the offset where the first cut record starts.

    The loop ends on the ``struct.error`` of the first header that does not
    fit: a declared length that overruns ``data`` can only belong to the
    last record walked, which is taken back.
    """
    starts: list[int] = []
    append = starts.append
    unpack_length = _RECORD_LENGTH.unpack_from
    offset = 0
    try:
        while True:
            length = unpack_length(data, offset)[0]
            append(offset)
            offset += MRT_HEADER_LEN + length
    except struct.error:
        pass
    if offset > len(data):
        offset = starts.pop()
    return np.fromiter(starts, np.int64, len(starts)), offset


def _decode_block(buf: np.ndarray, starts: np.ndarray, base: int) -> np.ndarray:
    """UPDATE rows of the whole records at ``starts``; raises the block's first fault.

    ``buf`` holds the stream from byte offset ``base`` on, so a fault at
    ``buf`` position ``i`` is reported at stream offset ``base + i``.

    ``live`` marks the records still being decoded. Each check writes the
    fault of the live records that fail it into ``code`` and ``at`` and drops
    them from ``live``, so a record keeps its first fault; reads for records
    that are not live may land anywhere in the buffer and are never used.
    """

    def two_octets(pos: np.ndarray) -> np.ndarray:  # the big-endian 2-octet fields at ``pos``
        return buf.take(pos, mode="clip").astype(np.int64) << 8 | buf.take(pos + 1, mode="clip")

    messages: list[str] = []  # a fault's code is 1 + the index of its check's message, or -1 for a bad prefix
    code, at = np.zeros(starts.shape, dtype=np.int8), np.zeros(starts.shape, dtype=np.int64)  # 0: no fault

    def check(live: np.ndarray, short: np.ndarray, message: str, pos: np.ndarray) -> np.ndarray:
        messages.append(message)
        bad = live & short
        if bad.any():
            code[bad], at[bad] = len(messages), pos[bad]
        live ^= bad
        return live

    # Each record's common header as three big-endian uint32: timestamp, type << 16 | subtype, length.
    header = sliding_window_view(buf, MRT_HEADER_LEN)[starts].view(">u4")
    timestamp, kind, length = (header[:, i].astype(np.int64) for i in range(3))
    del header
    pos = starts + MRT_HEADER_LEN
    end = pos + length
    mrt_type, subtype = kind >> 16, kind & 0xFFFF
    del kind, length  # the pass peaks in the prefix count; hold no column it does not need there
    extended = mrt_type == MRT_TYPE_BGP4MP_ET
    as4 = subtype == BGP4MP_MESSAGE_AS4
    live = ((mrt_type == MRT_TYPE_BGP4MP) | extended) & ((subtype == BGP4MP_MESSAGE) | as4)
    del mrt_type, subtype

    # Microsecond extension: bucketing is per-minute, so it is skipped.
    live = check(live, extended & (end - pos < 4), "BGP4MP_ET microsecond field truncated", pos)
    pos += 4 * extended
    peer_header = np.where(as4, 12, 8)  # peer and local AS numbers of 2 or 4 octets, interface index, AFI
    live = check(live, end - pos < peer_header, "BGP4MP message header truncated", pos)
    pos += peer_header
    afi = two_octets(pos - 2)
    # Unknown address family: the BGP message cannot be located, so the record is skipped.
    ipv4 = afi == AFI_IPV4
    live &= ipv4 | (afi == AFI_IPV6)
    addresses = np.where(ipv4, 8, 32)  # peer and local address
    live = check(live, end - pos < addresses, "BGP4MP peer addresses truncated", pos)
    pos += addresses

    live = check(live, end - pos < BGP_HEADER_LEN, "BGP message header truncated", pos)
    msg_len = two_octets(pos + 16)
    live = check(live, msg_len < BGP_HEADER_LEN, "BGP message length below header size", pos)
    msg_end = pos + msg_len
    live = check(live, msg_end > end, "BGP message overruns its MRT record", pos)
    live &= buf.take(pos + 18, mode="clip") == BGP_TYPE_UPDATE
    end = msg_end
    pos += BGP_HEADER_LEN

    live = check(live, end - pos < 2, "withdrawn-routes length field truncated", pos)
    withdrawn_end = pos + 2 + two_octets(pos)
    pos += 2
    live = check(live, withdrawn_end > end, "withdrawn-routes field overruns the UPDATE", pos)
    withdrawn_start = np.where(live, pos, withdrawn_end)  # a closed field starts at its end
    live = check(live, end - withdrawn_end < 2, "path-attribute length field truncated", withdrawn_end)
    pos = withdrawn_end + 2
    attr_end = pos + two_octets(withdrawn_end)
    live = check(live, attr_end > end, "path attributes overrun the UPDATE", pos)
    pos = attr_end  # attribute semantics are out of scope

    count, fault = _count_prefixes(
        buf, np.concatenate((withdrawn_start, np.where(live, pos, end))), np.concatenate((withdrawn_end, end))
    )
    (withdrawn, announced), (withdrawn_fault, announced_fault) = np.split(count, 2), np.split(fault, 2)
    for prefix_fault in (announced_fault, withdrawn_fault):  # a bad withdrawn prefix outranks every later check
        bad = prefix_fault >= 0
        if bad.any():
            code[bad], at[bad] = -1, prefix_fault[bad]
    faulty = np.flatnonzero(code)
    if faulty.size:
        i, offset = faulty[0], int(at[faulty[0]])
        raise _prefix_error(buf, offset, base) if code[i] < 0 else TruncatedRecord(messages[code[i] - 1], base + offset)
    return np.column_stack((timestamp[live], announced[live], withdrawn[live]))


def _count_prefixes(buf: np.ndarray, cursor: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Count the (length-octet, ceil(length/8) octets) prefix entries of each field.

    Field ``j`` spans ``[cursor[j], end[j])``. The open fields advance in
    lockstep, one prefix a step; only their indices, cursors and ends are
    carried, and a field that closes at step ``s`` holds ``s`` prefixes.
    Returns the counts and the offset of each field's bad prefix (-1 for none).
    """
    count = np.zeros(cursor.size, dtype=np.int64)
    fault = np.full(cursor.size, -1, dtype=np.int64)
    index = np.flatnonzero(cursor < end)
    cursor, end = cursor[index], end[index]
    step = 0
    while index.size:
        step += 1
        count[index] = step
        octet = buf[cursor]
        # 1 + ceil(length / 8) octets, summed in int16: the length octet plus 15 wraps a uint8 from 241 up
        after = cursor + (np.add(octet, 15, dtype=np.int16) >> 3)
        too_long = octet > 32
        bad = too_long | (after > end)
        if bad.any():
            fault[index[bad]] = cursor[bad]
        keep = np.flatnonzero(~too_long & (after < end))
        index, cursor, end = index[keep], after[keep], end[keep]
    return count, fault


def _prefix_error(buf: np.ndarray, at: int, base: int) -> MalformedPrefix:
    if buf[at] > 32:
        return MalformedPrefix(f"prefix length {int(buf[at])} exceeds 32 bits", base + at)
    return MalformedPrefix("prefix bytes overrun the field", base + at)
