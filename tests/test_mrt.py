"""MRT parser tests against the hand-built byte fixtures and the per-record reference."""

import bz2
import gzip
import io
import random
import tracemalloc
import zlib
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpnovelty import mrt
from bgpnovelty.mrt import (
    BZIP2,
    GZIP,
    MalformedPrefix,
    MrtParseError,
    TruncatedRecord,
    UnreadableStream,
    compression,
    parse_mrt_stream,
)

from mrtbuild import (
    CORPUS,
    attrs_only_update_record,
    bgp4mp_body,
    bgp4mp_message_record,
    bgp_keepalive,
    bgp_update,
    bgp4mp_update_record,
    keepalive_record,
    mrt_record,
    parse_bytes,
    prefix,
    table_dump_record,
)
from mrtref import reference_parse


def rows(records):
    """The parser's ``(n, 3)`` array as a list of ``(timestamp_s, announced, withdrawn)`` tuples."""
    assert records.dtype == np.int64 and records.ndim == 2 and records.shape[1] == 3
    return [tuple(r) for r in records.tolist()]


@pytest.mark.parametrize("name,stream,expected", CORPUS, ids=[c[0] for c in CORPUS])
def test_fixture_corpus(name, stream, expected):
    records = parse_bytes(stream)
    assert rows(records) == expected


def test_update_counts_prefixes_not_messages():
    stream = bgp4mp_update_record(timestamp=1000, n_announced=2, n_withdrawn=1)
    assert rows(parse_bytes(stream)) == [(1000, 2, 1)]


def test_table_dump_only_yields_empty_sequence():
    assert rows(parse_bytes(table_dump_record())) == []


def test_input_shorter_than_header_is_truncated():
    with pytest.raises(TruncatedRecord) as info:
        parse_bytes(b"\x00" * 11)
    assert info.value.offset == 0


def test_declared_length_overrunning_stream_is_truncated():
    record = bgp4mp_update_record()
    with pytest.raises(TruncatedRecord):
        parse_bytes(record[:-1])


def test_truncation_error_reports_fault_offset():
    good = bgp4mp_update_record()
    stream = good + b"\x00" * 5  # second header starts but cannot complete
    with pytest.raises(TruncatedRecord) as info:
        parse_bytes(stream)
    assert info.value.offset == len(good)


def test_prefix_length_over_32_bits_is_malformed():
    message = bgp_update(nlri=bytes([33, 1, 2, 3, 4, 5]))
    stream = mrt_record(16, 1, bgp4mp_body(message))
    with pytest.raises(MalformedPrefix):
        parse_bytes(stream)


def test_prefix_bytes_overrunning_field_is_malformed():
    message = bgp_update(nlri=bytes([24, 10, 0]))  # /24 needs 3 octets, has 2
    stream = mrt_record(16, 1, bgp4mp_body(message))
    with pytest.raises(MalformedPrefix):
        parse_bytes(stream)


def test_ipv6_afi_header_is_walked_correctly():
    stream = bgp4mp_update_record(timestamp=2000, n_announced=1, n_withdrawn=0, afi=2)
    assert rows(parse_bytes(stream)) == [(2000, 1, 0)]


def test_unknown_afi_record_is_skipped():
    message = bgp_update(nlri=prefix(8, 10))
    stream = mrt_record(16, 1, bgp4mp_body(message, afi=3))
    assert rows(parse_bytes(stream)) == []


def test_zero_prefix_update_yields_zero_counts():
    records = parse_bytes(attrs_only_update_record(timestamp=500))
    assert rows(records) == [(500, 0, 0)]


def test_extended_time_truncates_to_whole_seconds():
    stream = bgp4mp_update_record(timestamp=3000, extended=True, microseconds=999_999)
    ((timestamp_s, _, _),) = rows(parse_bytes(stream))
    assert timestamp_s == 3000


def test_parse_is_pure_function_of_bytes():
    stream = b"".join(item[1] for item in CORPUS)
    assert rows(parse_bytes(stream)) == rows(parse_bytes(stream))


@pytest.mark.parametrize("left_idx,right_idx", [(0, 1), (1, 4), (7, 0), (3, 7)])
def test_concatenation_of_streams_concatenates_parses(left_idx, right_idx):
    left = CORPUS[left_idx][1]
    right = CORPUS[right_idx][1]
    assert rows(parse_bytes(left + right)) == rows(parse_bytes(left)) + rows(parse_bytes(right))


def test_empty_stream_yields_no_records():
    assert rows(parse_bytes(b"")) == []


# ---------------------------------------------------------------- against the per-record reference


def outcome(parse, data):
    """Rows as tuples, or the error's class, message and offset."""
    try:
        return [tuple(r) for r in np.asarray(parse(data), dtype=np.int64).reshape(-1, 3).tolist()]
    except MrtParseError as exc:
        return type(exc), str(exc), exc.offset


@st.composite
def prefix_fields(draw):
    """0-12 NLRI entries of any length /0 to /32 with random octets."""
    entries = []
    for bits in draw(st.lists(st.integers(0, 32), max_size=12)):
        size = (bits + 7) // 8
        entries.append(prefix(bits, *draw(st.binary(min_size=size, max_size=size))))
    return b"".join(entries)


@st.composite
def mrt_pieces(draw):
    """One record: BGP4MP/BGP4MP_ET or other types, MESSAGE or other subtypes, AFI 1/2/other."""
    if draw(st.integers(0, 4)):
        message = bgp_update(
            withdrawn=draw(prefix_fields()), attrs=draw(st.binary(max_size=8)), nlri=draw(prefix_fields())
        )
    else:
        message = bgp_keepalive()
    return bgp4mp_message_record(
        message,
        mrt_type=draw(st.sampled_from([16, 17, 12, 13])),
        subtype=draw(st.sampled_from([0, 1, 4, 5])),
        afi=draw(st.sampled_from([1, 2, 3])),
        timestamp=draw(st.integers(0, 2**32 - 1)),
        microseconds=draw(st.integers(0, 999_999)),
    )


streams = st.lists(mrt_pieces(), max_size=8).map(b"".join)


@st.composite
def wide_prefix_fields(draw):
    """100-1,000 entries of /0 to /32, and at a drawn entry maybe a fault.

    The fault is a length octet above 32, with the entries after it kept, or
    an entry cut short, which then ends the field: its bytes overrun it.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))  # one draw for the entries, not one each
    lengths = [rng.randint(0, 32) for _ in range(draw(st.integers(100, 1000)))]
    entries = [prefix(bits, *rng.randbytes((bits + 7) // 8)) for bits in lengths]
    at = draw(st.integers(0, len(entries) - 1))
    fault = draw(st.sampled_from([None, "length", "overrun"]))
    if fault == "length":
        entries[at] = bytes([draw(st.integers(33, 255))]) + entries[at][1:]
    elif fault == "overrun":
        bits = draw(st.integers(1, 32))
        entries[at:] = [bytes([bits]) + rng.randbytes(draw(st.integers(0, (bits + 7) // 8 - 1)))]
    return b"".join(entries)


@st.composite
def wide_update_records(draw):
    """One BGP4MP or BGP4MP_ET UPDATE record with wide withdrawn and NLRI fields."""
    message = bgp_update(
        withdrawn=draw(wide_prefix_fields()), attrs=draw(st.binary(max_size=8)), nlri=draw(wide_prefix_fields())
    )
    return bgp4mp_message_record(
        message,
        mrt_type=draw(st.sampled_from([16, 17])),
        subtype=draw(st.sampled_from([1, 4])),
        afi=draw(st.sampled_from([1, 2])),
        timestamp=draw(st.integers(0, 2**32 - 1)),
    )


class TestMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(stream=streams)
    def test_built_streams(self, stream):
        assert outcome(parse_bytes, stream) == outcome(reference_parse, stream)

    @settings(max_examples=200, deadline=None)
    @given(stream=streams, data=st.data())
    def test_streams_cut_at_any_byte(self, stream, data):
        cut = data.draw(st.integers(0, len(stream)))
        assert outcome(parse_bytes, stream[:cut]) == outcome(reference_parse, stream[:cut])

    @settings(max_examples=300, deadline=None)
    @given(stream=streams.filter(bool), data=st.data())
    def test_streams_with_one_byte_changed(self, stream, data):
        at = data.draw(st.integers(0, len(stream) - 1))
        changed = stream[:at] + bytes([data.draw(st.integers(0, 255))]) + stream[at + 1 :]
        assert outcome(parse_bytes, changed) == outcome(reference_parse, changed)

    @settings(max_examples=300, deadline=None)
    @given(
        mrt_type=st.sampled_from([16, 17]),
        subtype=st.sampled_from([1, 4]),
        body=st.binary(max_size=80),
        tail=st.binary(max_size=14),
    )
    def test_random_bodies_under_message_headers(self, mrt_type, subtype, body, tail):
        stream = mrt_record(mrt_type, subtype, body) + tail
        assert outcome(parse_bytes, stream) == outcome(reference_parse, stream)

    @settings(max_examples=100, deadline=None)
    @given(lead=streams, wide=st.lists(wide_update_records(), min_size=1, max_size=3))
    def test_wide_fields_with_a_fault_at_any_entry(self, lead, wide):
        stream = lead + b"".join(wide)
        assert outcome(parse_bytes, stream) == outcome(reference_parse, stream)

    def test_streams_longer_than_one_block(self):
        def piece(i):
            if i % 4 == 0:
                return keepalive_record()
            return bgp4mp_update_record(
                timestamp=1000 + i, n_announced=i % 5, n_withdrawn=i % 3, as4=i % 2 == 1, extended=i % 7 == 0,
                afi=1 + i % 2,
            )

        pieces = [piece(i) for i in range(2 * 4096 + 17)]
        stream = b"".join(pieces)
        records = parse_bytes(stream)
        assert rows(records) == reference_parse(stream)
        assert len(records) == sum(1 for i in range(len(pieces)) if i % 4)


LAYOUTS = [
    bgp4mp_update_record(n_announced=2, n_withdrawn=2, as4=as4, extended=extended, afi=afi)
    for as4, extended, afi in product([False, True], [False, True], [1, 2])
] + [keepalive_record(), attrs_only_update_record()]


@pytest.mark.parametrize("record", LAYOUTS, ids=range(len(LAYOUTS)))
def test_every_byte_at_edge_values_matches_reference(record):
    """Each byte of one record set to values that sit on the length and prefix limits."""
    for at, value in product(range(len(record)), (0, 1, 2, 3, 18, 19, 32, 33, 255)):
        changed = record[:at] + bytes([value]) + record[at + 1 :]
        assert outcome(parse_bytes, changed) == outcome(reference_parse, changed), (at, value)


def test_every_cut_of_a_mixed_stream_matches_reference():
    stream = b"".join(LAYOUTS)
    for cut in range(len(stream) + 1):
        assert outcome(parse_bytes, stream[:cut]) == outcome(reference_parse, stream[:cut]), cut


class TestProperties:
    @settings(max_examples=500, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes_raise_only_parse_errors(self, data):
        try:
            parse_bytes(data)
        except MrtParseError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(a=streams, b=streams)
    def test_parse_of_concatenation_is_concatenation_of_parses(self, a, b):
        assert rows(parse_bytes(a + b)) == rows(parse_bytes(a)) + rows(parse_bytes(b))


class TestFirstFaultWins:
    def good(self, count):
        return [bgp4mp_update_record(timestamp=7000 + i, n_announced=1 + i % 3) for i in range(count)]

    def test_bad_prefix_in_second_block_beats_truncated_tail(self):
        pieces = self.good(4096 + 10)
        pieces[4096 + 3] = mrt_record(16, 1, bgp4mp_body(bgp_update(nlri=prefix(8, 10) + bytes([40, 1]))))
        bad_record_at = sum(map(len, pieces[: 4096 + 3]))
        stream = b"".join(pieces) + bgp4mp_update_record()[:-1]
        with pytest.raises(MalformedPrefix, match="prefix length 40 exceeds 32 bits") as info:
            parse_bytes(stream)
        # common header 12, BGP4MP header 8, two IPv4 addresses 8, BGP header 19, two length fields 4, one /8 entry 2
        assert info.value.offset == bad_record_at + 12 + 8 + 8 + 19 + 4 + 2
        assert outcome(parse_bytes, stream) == outcome(reference_parse, stream)

    def test_earlier_record_wins_over_earlier_check(self):
        # Record 1 fails late (an overrunning NLRI prefix); record 2 fails early (short BGP4MP header).
        pieces = self.good(3)
        pieces[1] = mrt_record(16, 1, bgp4mp_body(bgp_update(nlri=bytes([24, 10, 0]))))
        pieces[2] = mrt_record(16, 1, b"\x00" * 3)
        stream = b"".join(pieces)
        with pytest.raises(MalformedPrefix, match="prefix bytes overrun the field"):
            parse_bytes(stream)
        assert outcome(parse_bytes, stream) == outcome(reference_parse, stream)

    def test_withdrawn_prefix_fault_ranks_before_attribute_checks(self):
        # Bad withdrawn entry, then an attribute length that overruns the UPDATE.
        update = bgp_update(withdrawn=bytes([33, 0, 0, 0, 0, 0]))
        update = update[:-2] + b"\x00\x09"
        stream = mrt_record(16, 1, bgp4mp_body(update))
        with pytest.raises(MalformedPrefix, match="prefix length 33"):
            parse_bytes(stream)
        assert outcome(parse_bytes, stream) == outcome(reference_parse, stream)

    def test_withdrawn_prefix_fault_ranks_before_an_nlri_prefix_fault(self):
        # Both prefix fields of one record are bad: the withdrawn one comes first in the record.
        stream = mrt_record(16, 1, bgp4mp_body(bgp_update(withdrawn=bytes([33, 0, 0, 0, 0, 0]), nlri=bytes([40, 1]))))
        # common header 12, BGP4MP header 8, two IPv4 addresses 8, BGP header 19, withdrawn length 2
        fault = (MalformedPrefix, "prefix length 33 exceeds 32 bits (byte offset 49)", 49)
        assert outcome(parse_bytes, stream) == fault == outcome(reference_parse, stream)


# ---------------------------------------------------------------- chunked reading


def chunked(data, size):
    """``outcome`` of parsing ``data`` read ``size`` bytes at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mrt, "CHUNK_BYTES", size)
        return outcome(parse_bytes, data)


def whole(data):
    """``outcome`` of parsing ``data`` in one chunk larger than the stream."""
    return chunked(data, len(data) + 1)


chunk_sizes = st.one_of(st.integers(1, 40), st.integers(1, 2000))
LEAD = bgp4mp_update_record(timestamp=60)  # puts what the tests draw past the first chunks


class TestAnyChunkSize:
    @settings(max_examples=200, deadline=None)
    @given(stream=streams.map(LEAD.__add__), size=chunk_sizes)
    def test_built_streams(self, stream, size):
        assert chunked(stream, size) == whole(stream)

    @settings(max_examples=200, deadline=None)
    @given(stream=streams.map(LEAD.__add__), size=chunk_sizes, data=st.data())
    def test_streams_cut_at_any_byte(self, stream, size, data):
        cut = stream[: data.draw(st.integers(0, len(stream)))]
        assert chunked(cut, size) == whole(cut)

    @settings(max_examples=300, deadline=None)
    @given(stream=streams.map(LEAD.__add__), size=chunk_sizes, data=st.data())
    def test_streams_with_one_byte_changed(self, stream, size, data):
        at = data.draw(st.integers(0, len(stream) - 1))
        changed = stream[:at] + bytes([data.draw(st.integers(0, 255))]) + stream[at + 1 :]
        assert chunked(changed, size) == whole(changed)

    @pytest.mark.parametrize("record", LAYOUTS, ids=range(len(LAYOUTS)))
    def test_every_byte_changed_past_the_first_chunk(self, record):
        """Faults of every kind, reported from a chunk that starts after byte 0."""
        for at, value in product(range(len(record)), (0, 32, 33, 255)):
            stream = LEAD + record[:at] + bytes([value]) + record[at + 1 :]
            assert chunked(stream, 7) == whole(stream), (at, value)

    def test_boundary_inside_a_common_header(self):
        first, second = bgp4mp_update_record(timestamp=60), bgp4mp_update_record(timestamp=120, n_announced=5)
        assert chunked(first + second, len(first) + 5) == [(60, 2, 1), (120, 5, 1)]
        for cut, message in ((7, "stream ends inside an MRT header"), (12, "declared record length overruns the stream")):
            stream = first + second[:cut]
            fault = (TruncatedRecord, f"{message} (byte offset {len(first)})", len(first))
            assert chunked(stream, len(first) + 3) == fault == whole(stream)

    def test_boundary_at_a_record_end(self):
        pieces = [bgp4mp_update_record(timestamp=60 * i, n_announced=i) for i in range(1, 4)]
        stream = b"".join(pieces)
        assert chunked(stream, len(pieces[0])) == [(60, 1, 1), (120, 2, 1), (180, 3, 1)]
        fault = (
            TruncatedRecord,
            f"declared record length overruns the stream (byte offset {len(stream) - len(pieces[2])})",
            len(stream) - len(pieces[2]),
        )
        assert chunked(stream[:-1], len(pieces[0])) == fault == whole(stream[:-1])

    def test_record_longer_than_several_chunks(self):
        long = bgp4mp_update_record(timestamp=600, n_announced=200, n_withdrawn=50)
        stream = bgp4mp_update_record(timestamp=60) + long + bgp4mp_update_record(timestamp=660)
        assert len(long) > 10 * 64
        assert chunked(stream, 64) == [(60, 2, 1), (600, 200, 50), (660, 2, 1)]
        assert chunked(stream[:-100], 64) == whole(stream[:-100])

    def test_decode_fault_in_the_first_chunk_beats_a_tail_fault_three_chunks_later(self):
        bad = mrt_record(16, 1, bgp4mp_body(bgp_update(nlri=bytes([24, 10, 0]))))
        good = b"".join(bgp4mp_update_record(timestamp=60 * i) for i in range(12))
        size = 128
        stream = bad + good + bgp4mp_update_record()[:-1]
        assert len(bad) < size and len(bad + good) > 3 * size
        fault = (MalformedPrefix, "prefix bytes overrun the field (byte offset 51)", 51)
        assert chunked(stream, size) == fault == whole(stream)


def dense_chunk(bad_at=None):
    """Exactly one chunk of bare 12-byte records with an UPDATE as every 16th, and its records.

    The record at index ``bad_at`` is an UPDATE whose second NLRI prefix is 40 bits long.
    """
    pieces, size = [], 0
    while size <= mrt.CHUNK_BYTES - 256:  # room for one more record and the padding record
        i = len(pieces)
        if i == bad_at:
            piece = mrt_record(16, 1, bgp4mp_body(bgp_update(nlri=prefix(8, 10) + bytes([40, 1]))), 1000 + i)
        elif i % 16 == 0:
            piece = bgp4mp_update_record(timestamp=1000 + i, n_announced=i % 5, n_withdrawn=i % 3)
        else:
            piece = mrt_record(13, 1, b"", 1000 + i)  # TABLE_DUMP_V2, skipped, with no body: 12 bytes
        pieces.append(piece)
        size += len(piece)
    pieces.append(mrt_record(13, 1, bytes(mrt.CHUNK_BYTES - size - 12)))
    return b"".join(pieces), pieces


class TestDenseChunk:
    """A chunk of bare 12-byte records, far more than 4,096 of them, is decoded in one numpy pass."""

    def passes(self, monkeypatch) -> list:
        """The record count of each decode pass, collected as the parse runs."""
        counts = []
        decode = mrt._decode_block

        def counted(buf, starts, base):
            counts.append(starts.size)
            return decode(buf, starts, base)

        monkeypatch.setattr(mrt, "_decode_block", counted)
        return counts

    def test_parses_like_the_reference_in_one_pass(self, monkeypatch):
        stream, pieces = dense_chunk()
        assert len(stream) == mrt.CHUNK_BYTES and len(pieces) > 4 * 4096
        counts = self.passes(monkeypatch)
        parsed = outcome(parse_bytes, stream)
        assert counts == [len(pieces)]
        assert parsed == outcome(reference_parse, stream)
        assert len(parsed) == len(range(0, len(pieces) - 1, 16))

    def test_a_bad_update_past_record_4096_is_named_at_its_offset(self, monkeypatch):
        stream, pieces = dense_chunk(bad_at=4096 + 905)
        assert len(stream) == mrt.CHUNK_BYTES
        counts = self.passes(monkeypatch)
        # common header 12, BGP4MP header 8, two IPv4 addresses 8, BGP header 19, two length fields 4, one /8 entry 2
        offset = sum(map(len, pieces[: 4096 + 905])) + 12 + 8 + 8 + 19 + 4 + 2
        fault = (MalformedPrefix, f"prefix length 40 exceeds 32 bits (byte offset {offset})", offset)
        assert outcome(parse_bytes, stream) == fault == outcome(reference_parse, stream)
        assert counts == [len(pieces)]

    def test_peak_memory_of_the_pass_follows_the_chunk(self):
        # Measured 5.55 MB (10.6 chunks) for these 34,647 records of a 512 KiB chunk, about 160 bytes a
        # record: some 20 int64 columns at once, the peak in the prefix count, whose count and fault columns
        # hold two entries a record. A record's first fault is kept in two columns, an int8 code and an
        # int64 position. The bound, 14 chunks, leaves a 30% margin.
        stream, _ = dense_chunk()
        data = io.BytesIO(stream)
        tracemalloc.start()
        try:
            parse_mrt_stream(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14 * mrt.CHUNK_BYTES, peak


class TestCompressedStreams:
    STREAM = b"".join(LAYOUTS) + b"".join(bgp4mp_update_record(timestamp=60 * i, n_announced=i % 7) for i in range(500))

    @pytest.mark.parametrize("size", [1, 100, 1 << 18])
    @pytest.mark.parametrize("compress,open_", [(gzip.compress, gzip.open), (bz2.compress, bz2.open)])
    def test_compressed_copy_parses_like_the_raw_stream(self, compress, open_, size):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mrt, "CHUNK_BYTES", size)
            with open_(io.BytesIO(compress(self.STREAM))) as stream:
                assert rows(parse_mrt_stream(stream)) == rows(parse_bytes(self.STREAM))

    @pytest.mark.parametrize(
        "damage",
        [lambda c: c[: len(c) // 2], lambda c: c[:-1], lambda c: c[:10] + b"\x07" + c[11:]],
        ids=["cut-in-half", "cut-by-one", "bad-block"],
    )
    @pytest.mark.parametrize("compress,open_", [(gzip.compress, gzip.open), (bz2.compress, bz2.open)])
    def test_damaged_copy_raises_unreadable_stream(self, compress, open_, damage):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mrt, "CHUNK_BYTES", 100)
            with open_(io.BytesIO(damage(compress(self.STREAM)))) as stream:
                with pytest.raises(UnreadableStream, match="^cannot read the dump: ") as info:
                    parse_mrt_stream(stream)
        # Every byte before the offset was read intact, in whole 100-byte reads.
        assert info.value.offset % 100 == 0 and info.value.offset < len(self.STREAM)


def level_one_bzip2(data):
    """bzip2 in 100 kB blocks, so that a cut dump still holds whole blocks to decode."""
    return bz2.compress(data, compresslevel=1)


# (compress, format name, decoder of the bytes a cut or damaged copy still holds)
CODECS = [
    (gzip.compress, GZIP, lambda data: zlib.decompressobj(31).decompress(data)),
    (level_one_bzip2, BZIP2, lambda data: bz2.BZ2Decompressor().decompress(data)),
]


class TestDecompressedInTheChunkLoop:
    RECORDS = [bgp4mp_update_record(timestamp=60 * i, n_announced=i % 7, as4=i % 2 == 1) for i in range(12_000)]
    STREAM = b"".join(RECORDS)

    def test_format_is_told_by_its_magic_bytes(self):
        assert compression(gzip.compress(b"x")) == GZIP
        assert compression(bz2.compress(b"x")) == BZIP2
        assert compression(self.STREAM[:3]) is None
        assert compression(b"") is None
        assert compression(bz2.compress(b"")) == BZIP2  # the end-of-stream magic straight after the level
        assert all(compression(bz2.compress(b"x", level)) == BZIP2 for level in range(1, 10))
        # Only the whole magic counts: a raw dump stamped 2005-04-11 12:05:20 starts with "BZh".
        assert compression(mrt_record(16, 1, b"", 0x425A6800)) is None
        assert compression(b"BZh91AY&SX") is None
        assert compression(b"BZh0\x17rE8P\x90") is None
        assert compression(b"\x1f\x8b\x07") is None

    @pytest.mark.parametrize("size", [1, 100, 1 << 18])
    @pytest.mark.parametrize("compress,name,_", CODECS, ids=[GZIP, BZIP2])
    def test_multi_member_dump_parses_like_the_raw_bytes(self, compress, name, _, size):
        stream = b"".join(self.RECORDS[:300])
        cut = len(stream) // 3 + 5  # inside a record: members need not end at one
        dump = compress(stream[:cut]) + compress(b"") + compress(stream[cut:])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mrt, "CHUNK_BYTES", size)
            assert rows(parse_mrt_stream(io.BytesIO(dump), name)) == rows(parse_bytes(stream))

    @pytest.mark.parametrize("fraction", [0.2, 0.75])
    @pytest.mark.parametrize("compress,name,decode", CODECS, ids=[GZIP, BZIP2])
    def test_cut_dump_names_the_offset_of_its_last_decoded_byte(self, compress, name, decode, fraction):
        packed = compress(self.STREAM)
        cut = packed[: int(len(packed) * fraction)]
        decoded = len(decode(cut))  # every byte the cut copy still holds
        assert 0 < decoded < len(self.STREAM)
        with pytest.raises(UnreadableStream, match="^cannot read the dump: ") as info:
            parse_mrt_stream(io.BytesIO(cut), name)
        assert info.value.offset == decoded

    def test_a_dump_cut_past_the_first_chunk_is_named_exactly(self):
        packed = gzip.compress(self.STREAM)
        cut = packed[: int(len(packed) * 0.75)]
        assert len(zlib.decompressobj(31).decompress(cut)) > mrt.CHUNK_BYTES  # past one read of the parent's GzipFile
        with pytest.raises(UnreadableStream) as info:
            parse_mrt_stream(io.BytesIO(cut), GZIP)
        assert info.value.offset % mrt.CHUNK_BYTES != 0

    @pytest.mark.parametrize("compress,name,_", CODECS, ids=[GZIP, BZIP2])
    def test_bytes_after_the_last_member_must_start_another(self, compress, name, _):
        stream = b"".join(self.RECORDS[:100])
        with pytest.raises(UnreadableStream) as info:
            parse_mrt_stream(io.BytesIO(compress(stream) + b"trailing bytes"), name)
        assert info.value.offset == len(stream)

    @pytest.mark.parametrize("compress,name,_", CODECS, ids=[GZIP, BZIP2])
    def test_output_per_step_is_bounded_by_the_chunk(self, compress, name, _):
        dump = compress(bytes(1 << 20))  # a megabyte of zeros packs into a few kilobytes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mrt, "CHUNK_BYTES", 1 << 12)
            pieces = list(mrt._decompressed(io.BytesIO(dump), name))
        assert sum(map(len, pieces)) == 1 << 20
        assert max(map(len, pieces)) <= 1 << 12
