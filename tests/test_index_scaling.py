"""Tests for the disk index's two scaling properties (Section 4.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.disk_index import DiskIndex
from repro.storage import FileBlockStore, MemoryBlockStore
from repro.util import bit_prefix
from tests.conftest import make_fps


class TestCapacityScaling:
    def test_doubles_bucket_count(self):
        index = DiskIndex(4, bucket_bytes=512)
        scaled = index.scale_capacity()
        assert scaled.n_bits == 5
        assert scaled.n_buckets == 32
        assert scaled.bucket_bytes == index.bucket_bytes

    def test_preserves_every_entry(self):
        index = DiskIndex(4, bucket_bytes=512)
        fps = make_fps(150)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        scaled = index.scale_capacity()
        assert len(scaled) == 150
        for i, fp in enumerate(fps):
            assert scaled.lookup(fp) == i

    def test_entries_rehomed_by_extra_bit(self):
        index = DiskIndex(4, bucket_bytes=512)
        fps = make_fps(100)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        scaled = index.scale_capacity()
        # Old bucket k's residents split between new buckets 2k and 2k+1
        # according to bit n+1 of the fingerprint — i.e. every entry sits in
        # (or adjacent to) its 5-bit home.
        for k in range(scaled.n_buckets):
            for fp, _ in scaled.read_bucket(k).entries:
                home = scaled.bucket_number(fp)
                assert k in (home, (home - 1) % 32, (home + 1) % 32)
                assert home >> 1 == bit_prefix(fp, 4)

    def test_resolves_fullness(self):
        # Fill one bucket and its two neighbours, then scale: the scaled
        # index must accept the fingerprint that previously overflowed.
        index = DiskIndex(4, bucket_bytes=512)
        cap = index.bucket_capacity
        offset = 0
        for bucket in (4, 5, 6):
            placed = 0
            while placed < cap:
                for fp in make_fps(200, start=offset):
                    if index.bucket_number(fp) == bucket and placed < cap:
                        index.insert(fp, placed)
                        placed += 1
                offset += 200
        scaled = index.scale_capacity()
        assert len(scaled) == 3 * cap
        extra = next(
            fp for fp in make_fps(500, start=99_000) if index.bucket_number(fp) == 5
        )
        scaled.insert(extra, 7)
        assert scaled.lookup(extra) == 7

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=120))
    def test_property_scaling_preserves_mapping(self, count):
        index = DiskIndex(4, bucket_bytes=512)
        fps = make_fps(count)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        scaled = index.scale_capacity()
        assert dict(scaled.iter_entries()) == dict(index.iter_entries())


class TestScalingStorePreservation:
    """Regression: scaling a file-backed index must stay file-backed —
    the successor is built in a sibling temp file and atomically renamed
    over the original, never silently migrated to memory."""

    def test_file_backed_scaling_stays_on_disk(self, tmp_path):
        path = tmp_path / "idx.bin"
        index = DiskIndex(4, bucket_bytes=512, store=FileBlockStore(path, 16 * 512))
        fps = make_fps(150)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        scaled = index.scale_capacity()
        assert isinstance(scaled.store, FileBlockStore)
        assert scaled.store.path == path
        assert not path.with_name("idx.bin.scale").exists()
        assert len(scaled) == 150
        for i, fp in enumerate(fps):
            assert scaled.lookup(fp) == i

    def test_file_backed_scaling_survives_reopen(self, tmp_path):
        path = tmp_path / "idx.bin"
        index = DiskIndex(4, bucket_bytes=512, store=FileBlockStore(path, 16 * 512))
        fps = make_fps(100)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        scaled = index.scale_capacity()
        scaled.store.flush()
        scaled.store.close()
        # The on-disk file now has the doubled geometry.
        assert path.stat().st_size == 32 * 512
        reopened = DiskIndex(
            5, bucket_bytes=512, store=FileBlockStore(path, 32 * 512)
        )
        assert dict(reopened.iter_entries()) == {fp: i for i, fp in enumerate(fps)}

    def test_stale_scale_temp_is_discarded(self, tmp_path):
        # A leftover temp from an interrupted scaling must not poison the
        # next attempt (a non-empty store would mis-load bucket counts).
        path = tmp_path / "idx.bin"
        path.with_name("idx.bin.scale").write_bytes(b"\xff" * 32 * 512)
        index = DiskIndex(4, bucket_bytes=512, store=FileBlockStore(path, 16 * 512))
        for i, fp in enumerate(make_fps(50)):
            index.insert(fp, i)
        scaled = index.scale_capacity()
        assert len(scaled) == 50
        assert not path.with_name("idx.bin.scale").exists()

    def test_sparse_store_scaling_stays_sparse(self):
        # The in-memory store backs only the pages written, so a scaled
        # memory index stays in memory (and page-sparse), never on a file.
        index = DiskIndex(4, bucket_bytes=512, store=MemoryBlockStore(16 * 512))
        for i, fp in enumerate(make_fps(60)):
            index.insert(fp, i)
        scaled = index.scale_capacity()
        assert type(scaled.store) is MemoryBlockStore
        assert scaled.store.size == 32 * 512
        assert len(scaled) == 60

    def test_explicit_store_is_honoured(self):
        index = DiskIndex(4, bucket_bytes=512)
        for i, fp in enumerate(make_fps(40)):
            index.insert(fp, i)
        target = MemoryBlockStore(32 * 512)
        scaled = index.scale_capacity(store=target)
        assert scaled.store is target

    def test_checkpoint_called_per_source_bucket(self):
        index = DiskIndex(4, bucket_bytes=512)
        for i, fp in enumerate(make_fps(40)):
            index.insert(fp, i)
        seen = []
        index.scale_capacity(checkpoint=seen.append)
        assert seen == list(range(16))


class TestPerformanceScaling:
    def test_split_partitions_by_prefix(self):
        index = DiskIndex(6, bucket_bytes=512)
        fps = make_fps(300)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        parts = index.split(2)
        assert len(parts) == 4
        assert sum(len(p) for p in parts) == 300
        for k, part in enumerate(parts):
            assert part.n_bits == 4
            assert part.prefix_bits == 2
            assert part.prefix_value == k
            for fp, _ in part.iter_entries():
                assert bit_prefix(fp, 2) == k

    def test_split_parts_still_resolve_lookups(self):
        index = DiskIndex(6, bucket_bytes=512)
        fps = make_fps(200)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        parts = index.split(2)
        for i, fp in enumerate(fps):
            part = parts[bit_prefix(fp, 2)]
            assert part.lookup(fp) == i

    def test_part_rejects_foreign_fingerprints(self):
        index = DiskIndex(6, bucket_bytes=512)
        parts = index.split(2)
        foreign = next(fp for fp in make_fps(100) if bit_prefix(fp, 2) != 0)
        assert not parts[0].owns(foreign)
        with pytest.raises(ValueError):
            parts[0].insert(foreign, 0)
        with pytest.raises(ValueError):
            parts[0].lookup(foreign)

    def test_invalid_split_width(self):
        index = DiskIndex(4, bucket_bytes=512)
        with pytest.raises(ValueError):
            index.split(0)
        with pytest.raises(ValueError):
            index.split(4)

    def test_owns_without_prefix(self):
        index = DiskIndex(4, bucket_bytes=512)
        assert all(index.owns(fp) for fp in make_fps(10))

    def test_part_capacity_scaling_keeps_prefix(self):
        index = DiskIndex(6, bucket_bytes=512)
        fps = make_fps(100)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        part = index.split(1)[1]
        scaled = part.scale_capacity()
        assert scaled.prefix_bits == 1
        assert scaled.prefix_value == 1
        assert scaled.n_bits == part.n_bits + 1
        assert dict(scaled.iter_entries()) == dict(part.iter_entries())
