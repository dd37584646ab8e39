"""Tests for the Rabin rolling fingerprint and its vectorised twin."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking.rabin import (
    RABIN_DEGREE,
    RABIN_POLY,
    RABIN_WINDOW_SIZE,
    SCAN_BLOCK,
    RabinFingerprint,
    WindowScanner,
    _POSITION_TABLES,
    _packed_tables,
    _poly_mod,
    window_fingerprints,
)


class TestPolyMod:
    def test_small_values_unchanged(self):
        assert _poly_mod(0) == 0
        assert _poly_mod(1) == 1
        assert _poly_mod((1 << RABIN_DEGREE) - 1) == (1 << RABIN_DEGREE) - 1

    def test_modulus_reduces_to_zero(self):
        assert _poly_mod(RABIN_POLY) == 0

    def test_result_degree_below_modulus(self):
        for shift in (53, 60, 100, 200):
            assert _poly_mod(1 << shift).bit_length() <= RABIN_DEGREE

    def test_linearity(self):
        a, b = 0x123456789ABCDEF, 0xFEDCBA987654321
        assert _poly_mod(a ^ b) == _poly_mod(a) ^ _poly_mod(b)

    def test_position_tables_match_bit_serial_reduction(self):
        # The tables are derived from one another by the x^8 step; each must
        # still be the plain reduction of its shifted byte.
        for i in (0, 1, 23, 46, 47):
            shift = 8 * (RABIN_WINDOW_SIZE - 1 - i)
            assert _POSITION_TABLES[i].tolist() == [_poly_mod(b << shift) for b in range(256)]


class TestRollingFingerprint:
    def test_value_depends_only_on_window(self):
        """After priming, the fingerprint of the last 48 bytes is the same
        regardless of what came before them — the rolling property."""
        rng = np.random.default_rng(1)
        window = rng.integers(0, 256, RABIN_WINDOW_SIZE, dtype=np.uint8).tobytes()
        prefix_a = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
        prefix_b = rng.integers(0, 256, 17, dtype=np.uint8).tobytes()
        ra, rb = RabinFingerprint(), RabinFingerprint()
        ra.update(prefix_a + window)
        rb.update(prefix_b + window)
        assert ra.value == rb.value

    def test_primed_flag(self):
        r = RabinFingerprint()
        r.update(b"x" * (RABIN_WINDOW_SIZE - 1))
        assert not r.primed
        r.roll(ord("x"))
        assert r.primed

    def test_reset(self):
        r = RabinFingerprint()
        r.update(b"hello world" * 10)
        r.reset()
        assert r.value == 0
        assert not r.primed

    def test_distinct_windows_distinct_values(self):
        ra, rb = RabinFingerprint(), RabinFingerprint()
        ra.update(b"a" * RABIN_WINDOW_SIZE)
        rb.update(b"b" * RABIN_WINDOW_SIZE)
        assert ra.value != rb.value

    def test_value_below_degree(self):
        r = RabinFingerprint()
        r.update(bytes(range(256)))
        assert r.value.bit_length() <= RABIN_DEGREE

    def test_unsupported_window_size(self):
        with pytest.raises(ValueError):
            RabinFingerprint(window_size=32)


class TestVectorisedAgreement:
    def _reference(self, data):
        """Window fingerprints via the incremental roller."""
        r = RabinFingerprint()
        out = []
        for i, b in enumerate(data):
            value = r.roll(b)
            if i >= RABIN_WINDOW_SIZE - 1:
                out.append(value)
        return out

    def test_agrees_on_random_data(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, 500, dtype=np.uint8).tobytes()
        fast = window_fingerprints(data)
        assert list(map(int, fast)) == self._reference(data)

    def test_agrees_on_repetitive_data(self):
        data = b"abcabc" * 50
        assert list(map(int, window_fingerprints(data))) == self._reference(data)

    def test_short_input_empty(self):
        assert len(window_fingerprints(b"short")) == 0
        assert len(window_fingerprints(b"")) == 0

    def test_exact_window_one_value(self):
        data = bytes(range(RABIN_WINDOW_SIZE))
        out = window_fingerprints(data)
        assert len(out) == 1
        assert int(out[0]) == self._reference(data)[0]

    def test_output_buffer_reuse(self):
        data = bytes(range(100))
        buf = np.zeros(200, dtype=np.uint64)
        out = window_fingerprints(data, out=buf)
        assert len(out) == 100 - RABIN_WINDOW_SIZE + 1
        np.testing.assert_array_equal(out, window_fingerprints(data))

    def test_output_buffer_too_small(self):
        with pytest.raises(ValueError):
            window_fingerprints(bytes(100), out=np.zeros(3, dtype=np.uint64))

    def test_output_buffer_wrong_dtype(self):
        with pytest.raises(ValueError):
            window_fingerprints(bytes(100), out=np.zeros(100, dtype=np.uint64), bits=13)

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=RABIN_WINDOW_SIZE, max_size=300))
    def test_property_agreement(self, data):
        assert list(map(int, window_fingerprints(data))) == self._reference(data)

    # GF(2) linearity holds bit by bit, so a kernel that carries only low
    # bits must report exactly the low bits of the rolling reference: both
    # sides of every dtype switch, and the widest mask a chunker may use.
    @pytest.mark.parametrize(
        "bits, dtype",
        [(8, np.uint8), (13, np.uint16), (16, np.uint16), (17, np.uint32),
         (32, np.uint32), (33, np.uint64), (48, np.uint64)],
    )
    @settings(max_examples=10, deadline=None)
    @given(data=st.binary(min_size=RABIN_WINDOW_SIZE, max_size=300))
    def test_property_narrow_kernel_is_low_bits_of_reference(self, bits, dtype, data):
        fps = window_fingerprints(data, bits=bits)
        assert fps.dtype == dtype and bits <= 8 * fps.dtype.itemsize
        kept = (1 << (8 * fps.dtype.itemsize)) - 1
        assert list(map(int, fps)) == [v & kept for v in self._reference(data)]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=30))
    def test_property_pieces_of_a_stream_scan_as_one(self, sizes):
        """The seam rule: however a stream is cut into blocks — shorter than
        the 47-byte carry included — every window comes out the same."""
        total = sum(sizes)
        data = np.random.default_rng(total).integers(0, 256, total, dtype=np.uint8)
        scanner, pieces, at = WindowScanner(13), [], 0
        for size in sizes:
            pieces.append(scanner.scan(data[at : at + size]).copy())
            at += size
        whole = window_fingerprints(data.tobytes(), bits=13)
        np.testing.assert_array_equal(np.concatenate(pieces)[RABIN_WINDOW_SIZE - 1 :], whole)


#: A stream cut into pieces that straddle the 47-byte carry (shorter than,
#: equal to and just over it), take every residue modulo 8 lanes, fill a
#: whole block and one byte short of it, and end on a short block.
LANE_PIECES = [3, 46, 47, 48, *range(100, 108), SCAN_BLOCK, SCAN_BLOCK - 1, 13]


@functools.lru_cache(maxsize=1)
def lane_stream():
    """The stream, and the rolling reference for the window ending at each
    of its bytes, behind the scanner's 47 zero bytes of start-up carry."""
    data = np.random.default_rng(34).integers(0, 256, sum(LANE_PIECES), dtype=np.uint8)
    roller = RabinFingerprint()
    roller.update(bytes(RABIN_WINDOW_SIZE - 1))
    return data, [roller.roll(b) for b in data.tolist()]


class TestPackedLanes:
    """Each ``uint64`` word of the kernel carries ``8 // itemsize``
    consecutive windows, lane ``r`` of word ``g`` being window
    ``g * lanes + r`` where element ``r`` of the word's dtype view lies in
    host byte order."""

    @pytest.mark.parametrize(
        "bits, lanes",
        [(8, 8), (9, 4), (13, 4), (16, 4), (17, 2), (32, 2), (33, 1), (53, 1)],
    )
    def test_every_lane_is_the_rolling_reference(self, bits, lanes):
        data, reference = lane_stream()
        scanner = WindowScanner(bits)
        lane_bits = 64 // lanes
        kept = (1 << lane_bits) - 1
        assert 8 * np.dtype(scanner.dtype).itemsize == lane_bits
        at = 0
        for m in LANE_PIECES:
            fps = scanner.scan(data[at : at + m])
            expected = [v & kept for v in reference[at : at + m]]
            assert list(map(int, fps)) == expected, m
            # The same values read out of the packed words with shifts and
            # masks: a layout that only round-trips through .view() fails.
            words = scanner._acc[: -(-m // lanes)].tolist()
            for r in range(lanes):
                slot = r if sys.byteorder == "little" else lanes - 1 - r
                lane = [(word >> (lane_bits * slot)) & kept for word in words]
                assert lane[: len(expected[r::lanes])] == expected[r::lanes], (m, r)
            at += m

    @pytest.mark.parametrize("dtype, lanes", [(np.uint8, 8), (np.uint16, 4), (np.uint32, 2), (np.uint64, 1)])
    def test_one_table_per_byte_offset_of_a_word(self, dtype, lanes):
        tables = _packed_tables(dtype)
        assert len(tables) == RABIN_WINDOW_SIZE + lanes - 1
        assert all(t.shape == (256,) and t.dtype == np.uint64 for t in tables)
        if dtype is np.uint64:  # one lane: the full-width position tables
            np.testing.assert_array_equal(np.stack(tables), _POSITION_TABLES)

    def test_importing_the_cli_builds_no_packed_table(self):
        src = Path(__file__).resolve().parent.parent / "src"
        probe = (
            "import repro.cli\n"
            "from repro.chunking import rabin\n"
            "print(rabin._packed_tables.cache_info().currsize)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert out.stdout.split() == ["0"]
