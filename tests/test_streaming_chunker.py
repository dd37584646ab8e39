"""Tests for constant-memory streaming chunking."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking import ContentDefinedChunker


def small_chunker():
    return ContentDefinedChunker(avg_bits=8, min_size=64, max_size=1024)


def random_data(n, seed=0):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


class TestStreamingEquivalence:
    def _compare(self, data, read_size=None):
        c = small_chunker()
        whole = list(c.chunks(data))
        kwargs = {"read_size": read_size} if read_size else {}
        streamed = list(c.chunks_from_stream(io.BytesIO(data), **kwargs))
        assert [ch.fingerprint for ch in streamed] == [ch.fingerprint for ch in whole]
        assert [ch.offset for ch in streamed] == [ch.offset for ch in whole]
        assert b"".join(ch.data for ch in streamed) == data

    def test_matches_whole_buffer(self):
        self._compare(random_data(100_000, seed=1))

    def test_small_read_size(self):
        self._compare(random_data(40_000, seed=2), read_size=2 * 1024)

    def test_input_smaller_than_one_read(self):
        self._compare(random_data(500, seed=3))

    def test_input_smaller_than_min_chunk(self):
        self._compare(b"tiny")

    def test_empty_stream(self):
        assert list(small_chunker().chunks_from_stream(io.BytesIO(b""))) == []

    def test_exact_read_size_boundary(self):
        c = small_chunker()
        self._compare(random_data(8 * c.max_size, seed=4))

    def test_low_entropy_max_cut_stream(self):
        # Forced max_size cuts must stream identically too.
        self._compare(b"\x07" * 50_000)

    def test_invalid_read_size(self):
        c = small_chunker()
        with pytest.raises(ValueError):
            list(c.chunks_from_stream(io.BytesIO(b"x" * 5000), read_size=0))

    def test_read_size_below_max_chunk(self):
        # A cut is final once its anchor is scanned: no look-back, so the
        # read size need not cover a chunk, let alone two.
        self._compare(random_data(20_000, seed=5), read_size=100)
        self._compare(b"\x07" * 5_000, read_size=1)

    def test_reads_across_the_kernel_block_seam(self):
        self._compare(random_data(70_000, seed=6), read_size=33_000)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=30_000),
        st.sampled_from([2048, 4096, 16 * 1024]),
    )
    def test_property_equivalence(self, n, read_size):
        self._compare(random_data(n, seed=n % 13), read_size=read_size)


class ShortReads(io.RawIOBase):
    """A stream whose ``read(n)`` returns the scripted number of bytes,
    never more than ``n`` — a pipe or socket delivering what it has."""

    def __init__(self, data, sizes):
        self._data, self._sizes, self._at = data, iter(sizes), 0

    def read(self, n=-1):
        size = min(n, next(self._sizes, n))
        piece = self._data[self._at : self._at + size]
        self._at += len(piece)
        return piece


class TestShortReads:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=6_000),
        st.integers(min_value=1, max_value=5_000),
        st.lists(st.integers(min_value=1, max_value=700), max_size=40),
    )
    def test_property_any_read_pattern_equals_whole_buffer(self, n, read_size, sizes):
        c = small_chunker()
        data = random_data(n, seed=n % 11)
        streamed = list(c.chunks_from_stream(ShortReads(data, sizes), read_size=read_size))
        assert streamed == list(c.chunks(data))


class TestStreamingFromFile:
    def test_chunk_real_file(self, tmp_path):
        data = random_data(60_000, seed=9)
        path = tmp_path / "big.bin"
        path.write_bytes(data)
        c = small_chunker()
        with open(path, "rb") as fh:
            streamed = list(c.chunks_from_stream(fh, read_size=4096))
        assert b"".join(ch.data for ch in streamed) == data
