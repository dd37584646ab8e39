"""Fuzz/property tests on the repro.net wire framing and message codecs.

Style follows ``tests/test_fuzz_serialization.py``: hypothesis drives
round trips and adversarial byte streams; every malformed input must
raise a :class:`~repro.net.framing.FrameError` subclass, never an
unhandled struct/index error, and never be silently accepted.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fingerprint import FINGERPRINT_SIZE
from repro.net import messages as m
from repro.net.framing import (
    FRAME_HEADER_SIZE,
    MAX_PAYLOAD,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    BadFrame,
    Frame,
    FrameError,
    TruncatedFrame,
    decode_frame,
    decode_header,
    read_frame,
)

fp_strategy = st.binary(min_size=FINGERPRINT_SIZE, max_size=FINGERPRINT_SIZE)
msg_type_strategy = st.sampled_from(sorted(m.MSG_NAMES))
rid_strategy = st.integers(min_value=0, max_value=(1 << 64) - 1)


def _reader(blob: bytes):
    """A recv-like callable over a byte string (may return short reads)."""
    view = memoryview(blob)
    state = {"pos": 0}

    def recv(n: int) -> bytes:
        start = state["pos"]
        block = bytes(view[start : start + n])
        state["pos"] = start + len(block)
        return block

    return recv


class TestFrameRoundtrip:
    @settings(max_examples=80, deadline=None)
    @given(msg_type_strategy, rid_strategy, st.binary(max_size=4096))
    def test_encode_decode_roundtrip(self, msg_type, rid, payload):
        frame = Frame(msg_type, rid, payload)
        blob = frame.encode()
        assert len(blob) == FRAME_HEADER_SIZE + len(payload) == frame.wire_size
        assert decode_frame(blob) == frame

    @settings(max_examples=60, deadline=None)
    @given(msg_type_strategy, rid_strategy, st.binary(max_size=2048))
    def test_read_frame_from_stream(self, msg_type, rid, payload):
        frame = Frame(msg_type, rid, payload)
        assert read_frame(_reader(frame.encode())) == frame

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(msg_type_strategy, rid_strategy,
                              st.binary(max_size=512)),
                    min_size=1, max_size=6))
    def test_read_frame_sequence(self, frames):
        stream = b"".join(Frame(*f).encode() for f in frames)
        recv = _reader(stream)
        for msg_type, rid, payload in frames:
            assert read_frame(recv) == Frame(msg_type, rid, payload)


class TestMalformedFrames:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=4, max_size=4).filter(lambda b: b != PROTOCOL_MAGIC),
           rid_strategy, st.binary(max_size=64))
    def test_bad_magic_rejected(self, magic, rid, payload):
        blob = struct.pack(">4sBBQI", magic, PROTOCOL_VERSION, m.PING,
                           rid, len(payload)) + payload
        with pytest.raises(BadFrame):
            decode_header(blob[:FRAME_HEADER_SIZE])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=255)
             .filter(lambda v: v != PROTOCOL_VERSION))
    def test_bad_version_rejected(self, version):
        blob = struct.pack(">4sBBQI", PROTOCOL_MAGIC, version, m.PING, 1, 0)
        with pytest.raises(BadFrame):
            decode_header(blob)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=MAX_PAYLOAD + 1, max_value=(1 << 32) - 1))
    def test_oversized_length_rejected(self, length):
        # The length field alone must trip the guard -- a reader must
        # never try to allocate/await an absurd payload.
        blob = struct.pack(">4sBBQI", PROTOCOL_MAGIC, PROTOCOL_VERSION,
                           m.PING, 1, length)
        with pytest.raises(BadFrame):
            decode_header(blob)

    def test_oversized_payload_refused_at_encode(self):
        frame = Frame(m.PING, 1, b"\0" * (MAX_PAYLOAD + 1))
        with pytest.raises(BadFrame):
            frame.encode()

    @settings(max_examples=60, deadline=None)
    @given(msg_type_strategy, rid_strategy, st.binary(min_size=1, max_size=512),
           st.data())
    def test_truncated_frame_detected(self, msg_type, rid, payload, data):
        blob = Frame(msg_type, rid, payload).encode()
        cut = data.draw(st.integers(min_value=1, max_value=len(blob) - 1))
        with pytest.raises(TruncatedFrame):
            read_frame(_reader(blob[:cut]))

    @settings(max_examples=60, deadline=None)
    @given(msg_type_strategy, rid_strategy, st.binary(max_size=256),
           st.binary(min_size=1, max_size=64))
    def test_trailing_garbage_rejected(self, msg_type, rid, payload, extra):
        blob = Frame(msg_type, rid, payload).encode()
        with pytest.raises(BadFrame):
            decode_frame(blob + extra)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=0, max_size=FRAME_HEADER_SIZE + 64))
    def test_random_bytes_never_crash(self, blob):
        # Arbitrary garbage either parses (it happened to be a valid
        # frame) or raises a protocol error -- nothing else.
        try:
            read_frame(_reader(blob))
        except FrameError:
            pass


class TestMessageCodecs:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(fp_strategy, max_size=50))
    def test_fps_roundtrip(self, fps):
        blob = m.encode_fps(fps)
        decoded, offset = m.decode_fps(blob)
        assert decoded == fps and offset == len(blob)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(fp_strategy,
                              st.integers(min_value=0, max_value=(1 << 32) - 1)),
                    max_size=40))
    def test_sized_fps_roundtrip(self, entries):
        blob = m.encode_sized_fps(entries)
        decoded, offset = m.decode_sized_fps(blob)
        assert decoded == entries and offset == len(blob)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(fp_strategy, st.binary(max_size=300)), max_size=12))
    def test_chunk_batch_roundtrip(self, chunks):
        blob = m.encode_chunk_batch(chunks)
        decoded, offset = m.decode_chunk_batch(blob)
        assert decoded == chunks and offset == len(blob)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.booleans(), max_size=70))
    def test_bitmap_roundtrip(self, bits):
        decoded, offset = m.decode_bitmap(m.encode_bitmap(bits))
        assert decoded == bits and offset == 4 + (len(bits) + 7) // 8

    @settings(max_examples=80, deadline=None)
    @given(st.binary(max_size=200))
    def test_codecs_reject_garbage_without_crashing(self, blob):
        for decoder in (
            m.decode_fps,
            m.decode_sized_fps,
            m.decode_chunk_batch,
            lambda b: m.decode_json(b),
            lambda b: m.decode_file_entries(b),
        ):
            try:
                decoder(blob)
            except m.MessageError:
                pass
