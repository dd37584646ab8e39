"""Tests for the Rabin rolling fingerprint and its vectorised twin."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking.rabin import (
    RABIN_DEGREE,
    RABIN_POLY,
    RABIN_WINDOW_SIZE,
    RabinFingerprint,
    WindowScanner,
    _POSITION_TABLES,
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
