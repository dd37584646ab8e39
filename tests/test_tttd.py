"""Tests for the TTTD two-threshold two-divisor chunker."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking import ContentDefinedChunker, TTTDChunker
from repro.chunking.cdc import ANCHOR_MAGIC, AnchorCutter
from repro.chunking.rabin import SCAN_BLOCK, RabinFingerprint
from tests.test_cdc import cut_digest


def small_tttd(**kwargs):
    defaults = dict(avg_bits=8, min_size=64, max_size=1024)
    defaults.update(kwargs)
    return TTTDChunker(**defaults)


def random_data(n, seed=0):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


def low_entropy_data(n, seed=0):
    """Short runs of a small alphabet: anchor-poor but not anchor-free."""
    rng = np.random.default_rng(seed)
    out = bytearray()
    while len(out) < n:
        out.extend(bytes([rng.integers(0, 8)]) * rng.integers(16, 64))
    return bytes(out[:n])


def tttd_reference(c, data):
    """Byte-at-a-time TTTD with the rolling hash, restarted at every cut.

    Scan from the chunk's start; past ``min_size`` the first main-divisor
    match ends the chunk, backup-divisor matches are remembered; on reaching
    ``max_size`` (or the end of the data) without a main match the chunk
    ends at the last backup match, else right there — and scanning resumes
    from the cut, re-reading whatever lay behind a backup match.
    """
    main_mask, backup_mask = (1 << c.avg_bits) - 1, (1 << c.backup_bits) - 1
    cuts, start, n = [], 0, len(data)
    while start < n:
        rabin, backup = RabinFingerprint(), 0
        end = min(start + c.max_size, n)
        cut = 0
        for i in range(start, end):
            value = rabin.roll(data[i])
            if i + 1 - start < c.min_size:
                continue
            if value & main_mask == ANCHOR_MAGIC & main_mask:
                cut = i + 1
                break
            if value & backup_mask == ANCHOR_MAGIC & backup_mask:
                backup = i + 1
        cuts.append(cut or backup or end)
        start = cuts[-1]
    return cuts


class TestParameters:
    def test_defaults(self):
        c = TTTDChunker()
        assert c.expected_size == 8 * 1024
        assert c.backup_bits == 12

    def test_invalid(self):
        with pytest.raises(ValueError):
            TTTDChunker(avg_bits=1)
        with pytest.raises(ValueError):
            small_tttd(backup_bits=8)  # not easier than main
        with pytest.raises(ValueError):
            small_tttd(backup_bits=0)
        with pytest.raises(ValueError):
            small_tttd(min_size=16)

    @pytest.mark.parametrize("backup_bits", [0, 13, 15, 17])
    def test_cutter_rejects_a_backup_divisor_no_easier_than_main(self, backup_bits):
        # One comparison per block finds both kinds of anchor only while
        # every main anchor is also a backup anchor.  Unchecked, a harder
        # backup mask drops most main anchors silently (15 bits: 33 chunks
        # of a random MiB instead of 100), and one wider than the kernel's
        # dtype (17 bits at uint16) overflows.
        data = random_data(1 << 20, seed=3)
        with pytest.raises(ValueError):
            AnchorCutter.cut_buffer(data, 2048, 65536, 13, backup_bits)

    def test_cutter_accepts_the_easiest_and_hardest_backup_divisors(self):
        data = random_data(3000, seed=4)
        for backup_bits in (1, 7):
            c = small_tttd(backup_bits=backup_bits)
            assert AnchorCutter.cut_buffer(data, 64, 1024, 8, backup_bits) == tttd_reference(c, data)


class TestCutPoints:
    def test_empty(self):
        assert small_tttd().cut_points(b"") == []

    def test_covers_input(self):
        data = random_data(20_000, seed=1)
        cuts = small_tttd().cut_points(data)
        assert cuts[-1] == len(data)
        assert cuts == sorted(set(cuts))

    def test_bounds_respected(self):
        c = small_tttd()
        data = random_data(50_000, seed=2)
        sizes = np.diff([0] + c.cut_points(data))
        assert all(c.min_size <= s <= c.max_size for s in sizes[:-1])

    def test_deterministic(self):
        data = random_data(10_000, seed=3)
        assert small_tttd().cut_points(data) == small_tttd().cut_points(data)

    def test_reconstruction(self):
        data = random_data(15_000, seed=4)
        chunks = list(small_tttd().chunks(data))
        assert b"".join(ch.data for ch in chunks) == data

    def test_agrees_with_cdc_on_anchor_rich_data(self):
        # Where main anchors are plentiful, TTTD and plain CDC cut alike.
        data = random_data(40_000, seed=5)
        cdc = ContentDefinedChunker(avg_bits=8, min_size=64, max_size=1024)
        tttd = small_tttd()
        a, b = cdc.cut_points(data), tttd.cut_points(data)
        shared = set(a) & set(b)
        assert len(shared) > 0.9 * len(a)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=20_000))
    def test_property_valid_partition(self, n):
        data = random_data(n, seed=n % 17)
        c = small_tttd()
        cuts = c.cut_points(data)
        start = 0
        for cut in cuts:
            assert cut - start <= c.max_size
            start = cut
        assert (not data and not cuts) or cuts[-1] == len(data)


class TestBackupDivisor:
    def test_fewer_forced_cuts_than_cdc(self):
        """The whole point: far fewer hard max_size cuts when main anchors
        are scarce.  With a 9-bit main divisor and a 1 KB ceiling, ~15 % of
        CDC chunks hit max_size on random data; TTTD's 8-bit backup divisor
        rescues most of them."""
        data = random_data(400_000, seed=6)
        cdc = ContentDefinedChunker(avg_bits=9, min_size=64, max_size=1024)
        tttd = TTTDChunker(avg_bits=9, backup_bits=7, min_size=64, max_size=1024)

        def forced_fraction(cuts, max_size):
            sizes = np.diff([0] + cuts)
            return float(np.mean(sizes[:-1] == max_size)) if len(sizes) > 1 else 0.0

        cdc_forced = forced_fraction(cdc.cut_points(data), 1024)
        tttd_forced = tttd.forced_cut_fraction(data)
        assert cdc_forced > 0.08  # CDC really does hit the hard bound
        assert tttd_forced < 0.25 * cdc_forced

    def test_edit_resilience_on_low_entropy_data(self):
        data = bytearray(low_entropy_data(80_000, seed=7))
        tttd = small_tttd()
        before = {ch.fingerprint for ch in tttd.chunks(bytes(data))}
        data[40_000:40_001] = b"\xff\xfe"  # 1-byte insert mid-stream
        after = {ch.fingerprint for ch in tttd.chunks(bytes(data))}
        assert len(before & after) > 0.5 * len(before)

    def test_backup_anchor_used_when_main_absent(self):
        # Construct a window with backup anchors but (statistically) few
        # main anchors by shrinking the gap: backup_bits=4 fires every ~16
        # bytes, main 12 bits almost never within 1 KB.
        c = small_tttd(avg_bits=10, backup_bits=4, min_size=64, max_size=1024)
        data = random_data(30_000, seed=8)
        sizes = np.diff([0] + c.cut_points(data))
        # Hard cuts exactly at max_size should be rare: backups catch them.
        assert float(np.mean(sizes[:-1] == 1024)) < 0.05


class TestAgainstByteWiseReference:
    """The shared cutter's fall-back rule against TTTD done a byte at a time."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=6000), st.booleans())
    def test_property_equals_reference(self, n, low_entropy):
        data = low_entropy_data(n, seed=n) if low_entropy else random_data(n, seed=n)
        for c in (small_tttd(), small_tttd(avg_bits=9, backup_bits=6)):
            assert c.cut_points(data) == tttd_reference(c, data)

    @pytest.mark.parametrize("n", [SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 47, 2 * SCAN_BLOCK + 1])
    def test_fall_backs_across_block_seams(self, n):
        # max_size 1000 does not divide the block, so open ranges (and the
        # remembered backup anchor) are carried from one block to the next.
        c = TTTDChunker(avg_bits=9, backup_bits=6, min_size=64, max_size=1000)
        for data in (low_entropy_data(n, seed=n), random_data(n, seed=n), bytes(n)):
            assert c.cut_points(data) == tttd_reference(c, data)

    @pytest.mark.parametrize("avg_bits", [8, 16, 17, 32, 33, 48])
    def test_every_kernel_width(self, avg_bits):
        # Both sides of each dtype switch through the same code path.  Past
        # 8 bits main anchors never fire here: every cut is a fall-back.
        c = TTTDChunker(avg_bits=avg_bits, backup_bits=6, min_size=64, max_size=1 << avg_bits)
        data = random_data(5000, seed=avg_bits)
        cuts = c.cut_points(data)
        assert cuts == tttd_reference(c, data)
        assert len(cuts) > 1

    def test_golden_cut_digest(self):
        """As for CDC (``tests/test_cdc.py``): recorded from the kernel this
        one replaced, at the default divisors and thresholds."""
        assert cut_digest(TTTDChunker()) == (
            "3a9c4d448f5b7dd4fa0e7904c86f3b30c6ebd8fe5a048cfd6427c1e666b15571"
        )
