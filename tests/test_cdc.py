"""Tests for content-defined chunking (CDC) and the fixed-size baseline."""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking import Chunk, ContentDefinedChunker, FixedSizeChunker, chunk_bytes
from repro.chunking import cdc
from repro.chunking.rabin import RABIN_WINDOW_SIZE, SCAN_BLOCK, RabinFingerprint
from repro.core.fingerprint import fingerprint


def small_chunker():
    """Fast test geometry: 256 B expected, 64 B min, 1 KB max."""
    return ContentDefinedChunker(avg_bits=8, min_size=64, max_size=1024)


def random_data(n, seed=0):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


def golden_corpus():
    """Fixed inputs for the boundary-stability digests (also used for TTTD).

    Seeded through ``random.Random``, whose byte stream is stable across
    Python and NumPy versions; lengths sit on the window, the size bounds
    and the kernel's block seams.
    """
    rng = random.Random(20100419)
    for n in (0, 1, 47, 48, 49, 2047, 2048, 2049, 2096, 4096, 32767, 32768, 32769,
              32815, 32816, 65536, 65583, 100_000, 300_000, (1 << 20) + 13):
        yield rng.randbytes(n)
    yield bytes(200_000)
    yield b"\x07" * 70_000
    yield bytes(i % 97 for i in range(200_000))
    yield bytes(rng.choice(b"ab \n") for _ in range(200_000))
    yield rng.randbytes(5000) * 40
    yield bytes(150_000) + rng.randbytes(150_000) + bytes(150_000)


def cut_digest(chunker):
    h = hashlib.sha256()
    for buf in golden_corpus():
        cuts = chunker.cut_points(buf)
        h.update(len(cuts).to_bytes(8, "big"))
        for cut in cuts:
            h.update(int(cut).to_bytes(8, "big"))
    return h.hexdigest()


class TestParameters:
    def test_paper_defaults(self):
        c = ContentDefinedChunker()
        assert c.expected_size == 8 * 1024
        assert c.min_size == 2 * 1024
        assert c.max_size == 64 * 1024

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            ContentDefinedChunker(avg_bits=0)
        with pytest.raises(ValueError):
            ContentDefinedChunker(avg_bits=13, min_size=16)  # below window
        with pytest.raises(ValueError):
            ContentDefinedChunker(avg_bits=4, min_size=64, max_size=1024)  # 16 < min


class TestCutPoints:
    def test_empty_input(self):
        assert small_chunker().cut_points(b"") == []
        assert list(small_chunker().chunks(b"")) == []

    def test_covers_input_exactly(self):
        data = random_data(10_000)
        cuts = small_chunker().cut_points(data)
        assert cuts[-1] == len(data)
        assert cuts == sorted(cuts)
        assert len(set(cuts)) == len(cuts)

    def test_size_bounds_respected(self):
        c = small_chunker()
        data = random_data(50_000, seed=3)
        cuts = c.cut_points(data)
        sizes = np.diff([0] + cuts)
        # Every chunk except possibly the last obeys [min, max].
        assert all(c.min_size <= s <= c.max_size for s in sizes[:-1])
        assert sizes[-1] <= c.max_size

    def test_max_size_forced_on_anchor_free_data(self):
        # Constant data has one window value everywhere; unless that value
        # anchors, every cut lands at max_size.
        c = small_chunker()
        data = b"\x7a" * 10_000
        cuts = c.cut_points(data)
        sizes = np.diff([0] + cuts)
        assert all(s == c.max_size for s in sizes[:-1])

    def test_deterministic(self):
        data = random_data(20_000, seed=5)
        assert small_chunker().cut_points(data) == small_chunker().cut_points(data)

    def test_mean_size_near_expected(self):
        c = small_chunker()
        stats = c.chunk_stats(random_data(400_000, seed=11))
        # Expected size 256 B (plus min-size offset); generous band.
        assert 150 < stats["mean"] < 600

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=0, max_size=4096))
    def test_property_vectorised_equals_streaming(self, data):
        c = small_chunker()
        assert c.cut_points(data) == c.cut_points_streaming(data)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=30_000))
    def test_property_vectorised_equals_streaming_random(self, n):
        c = small_chunker()
        data = random_data(n, seed=n)
        assert c.cut_points(data) == c.cut_points_streaming(data)


class TestBlockKernel:
    """The block-wise cutter against the byte-at-a-time ground truth."""

    B = SCAN_BLOCK
    SEAM_LENGTHS = [B - 48, B - 47, B - 1, B, B + 1, B + 47, B + 48,
                    2 * B - 1, 2 * B, 2 * B + 1]

    @staticmethod
    def _inputs(n, seed=0):
        return {
            "random": random_data(n, seed=seed),
            "zeros": bytes(n),
            "period-97": bytes(i % 97 for i in range(n)),
        }

    @pytest.mark.parametrize("n", SEAM_LENGTHS)
    def test_lengths_on_the_block_seams(self, n):
        c = small_chunker()
        for kind, data in self._inputs(n, seed=n).items():
            assert c.cut_points(data) == c.cut_points_streaming(data), kind

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=SCAN_BLOCK - 48, max_value=SCAN_BLOCK + 48))
    def test_property_lengths_around_the_first_seam(self, n):
        c = small_chunker()
        for kind, data in self._inputs(n, seed=n).items():
            assert c.cut_points(data) == c.cut_points_streaming(data), kind

    @pytest.mark.parametrize("n", [1, 47, 48, 49, 2047, 2048, 2049, 2048 + 48])
    def test_lengths_around_window_and_min_size(self, n):
        c = ContentDefinedChunker()  # min_size 2048
        for kind, data in self._inputs(n, seed=n).items():
            assert c.cut_points(data) == c.cut_points_streaming(data), kind

    def test_input_within_min_size_skips_the_kernel(self, monkeypatch):
        monkeypatch.setattr(cdc, "WindowScanner", None)
        c = small_chunker()
        assert c.cut_points(b"x" * c.min_size) == [c.min_size]
        assert c.cut_points(b"x") == [1]

    def test_anchor_whose_window_straddles_a_seam(self):
        # Plant a 48-byte anchoring window across the first block seam of an
        # otherwise anchor-free buffer; its cut must survive the seam.
        c = ContentDefinedChunker(avg_bits=8, min_size=64, max_size=1000)
        rng = random.Random(1)
        while True:
            window = rng.randbytes(RABIN_WINDOW_SIZE)
            if RabinFingerprint().update(window) & 0xFF == cdc.ANCHOR_MAGIC & 0xFF:
                break
        data = bytearray(self.B + 5000)
        begin = self.B - 20
        data[begin : begin + RABIN_WINDOW_SIZE] = window
        expected = c.cut_points_streaming(bytes(data))
        assert begin + RABIN_WINDOW_SIZE in expected
        assert c.cut_points(bytes(data)) == expected

    def test_golden_cut_digest(self):
        """Boundaries at the paper's defaults must never move: dedup against
        every existing vault rests on them.  The constant was recorded from
        the full-width 48-pass kernel this one replaced."""
        assert cut_digest(ContentDefinedChunker()) == (
            "8fa8c91ebd6986a4d7265e80c339075cacbb006377d50c2df94cef6c4c19a0f8"
        )

    @pytest.mark.parametrize("mib", [8, 32])
    def test_scratch_memory_is_bounded_by_the_block(self, mib):
        data = random.Random(mib).randbytes(mib << 20)
        c = ContentDefinedChunker()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cuts = c.cut_points(data)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert cuts[-1] == len(data)
        assert peak <= 1 << 20, f"{peak} bytes traced for {mib} MiB of input"


class TestChunks:
    def test_concatenation_reconstructs_input(self):
        data = random_data(30_000, seed=2)
        chunks = list(small_chunker().chunks(data))
        assert b"".join(ch.data for ch in chunks) == data

    def test_fingerprints_are_sha1_of_payload(self):
        data = random_data(5_000, seed=4)
        for ch in small_chunker().chunks(data):
            assert ch.fingerprint == fingerprint(ch.data)
            assert ch.size == len(ch.data)

    def test_offsets_sequential(self):
        data = random_data(10_000, seed=6)
        offset = 0
        for ch in small_chunker().chunks(data):
            assert ch.offset == offset
            offset += ch.size

    def test_chunk_bytes_convenience(self):
        chunks = chunk_bytes(random_data(5_000, seed=1), avg_bits=8, min_size=64, max_size=1024)
        assert all(isinstance(ch, Chunk) for ch in chunks)


class TestContentDefinedProperty:
    """The reason CDC exists: edits only perturb nearby chunks."""

    def test_prepend_preserves_most_chunks(self):
        c = small_chunker()
        data = random_data(60_000, seed=9)
        original = {ch.fingerprint for ch in c.chunks(data)}
        edited = {ch.fingerprint for ch in c.chunks(b"INSERTED AT FRONT" + data)}
        shared = original & edited
        # The overwhelming majority of chunks must survive the prepend.
        assert len(shared) >= 0.7 * len(original)

    def test_fixed_size_blocking_destroyed_by_prepend(self):
        fixed = FixedSizeChunker(256)
        data = random_data(60_000, seed=9)
        original = {ch.fingerprint for ch in fixed.chunks(data)}
        edited = {ch.fingerprint for ch in fixed.chunks(b"X" + data)}
        # One byte at the front shifts every block: almost nothing survives.
        assert len(original & edited) <= 0.05 * len(original)

    def test_interior_edit_local_damage(self):
        c = small_chunker()
        data = bytearray(random_data(60_000, seed=10))
        original = {ch.fingerprint for ch in c.chunks(bytes(data))}
        data[30_000:30_010] = b"0123456789"
        edited = {ch.fingerprint for ch in c.chunks(bytes(data))}
        assert len(original & edited) >= 0.8 * len(original)


class TestFixedSizeChunker:
    def test_exact_blocks(self):
        chunks = list(FixedSizeChunker(100).chunks(bytes(250)))
        assert [ch.size for ch in chunks] == [100, 100, 50]

    def test_exact_multiple(self):
        chunks = list(FixedSizeChunker(100).chunks(bytes(300)))
        assert [ch.size for ch in chunks] == [100, 100, 100]

    def test_empty(self):
        assert list(FixedSizeChunker(100).chunks(b"")) == []

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            FixedSizeChunker(0)

    def test_reconstruction(self):
        data = random_data(1234, seed=8)
        assert b"".join(ch.data for ch in FixedSizeChunker(97).chunks(data)) == data
