"""Tests for the DEBAR disk index: layout, insert/lookup, overflow."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit.auditor import audit_index
from repro.core.disk_index import (
    DISK_BLOCK_SIZE,
    ENTRIES_PER_BLOCK,
    ENTRY_SIZE,
    Bucket,
    DiskIndex,
    IndexFullError,
    pack_bucket,
    unpack_bucket,
)
from repro.durability.errors import CorruptionError
from repro.storage import FileBlockStore
from tests.conftest import make_fps


class TestLayoutConstants:
    def test_entry_is_25_bytes(self):
        # 20-byte SHA-1 + 5-byte (40-bit) container ID, per Section 4.2.
        assert ENTRY_SIZE == 25

    def test_twenty_entries_per_block(self):
        assert ENTRIES_PER_BLOCK == 20
        assert DISK_BLOCK_SIZE == 512

    def test_8kb_bucket_holds_320(self):
        index = DiskIndex(4, bucket_bytes=8 * 1024)
        assert index.bucket_capacity == 320


class TestSerialization:
    def test_roundtrip(self):
        entries = [(fp, i * 7) for i, fp in enumerate(make_fps(20))]
        blob = pack_bucket(entries, 512)
        assert len(blob) == 512
        assert unpack_bucket(blob) == entries

    def test_empty_bucket(self):
        blob = pack_bucket([], 512)
        assert unpack_bucket(blob) == []

    def test_large_container_id_survives(self):
        fp = make_fps(1)[0]
        cid = (1 << 40) - 1
        assert unpack_bucket(pack_bucket([(fp, cid)], 512)) == [(fp, cid)]

    def test_overfull_rejected(self):
        entries = [(fp, 0) for fp in make_fps(21)]
        with pytest.raises(ValueError):
            pack_bucket(entries, 512)

    def test_checksummed_roundtrip_and_crc_damage(self):
        entries = [(fp, i) for i, fp in enumerate(make_fps(5))]
        blob = pack_bucket(entries, 512, checksum=True)
        assert unpack_bucket(blob, checksummed=True) == entries
        rotted = bytearray(blob)
        rotted[10] ^= 0x01
        with pytest.raises(CorruptionError, match="CRC mismatch"):
            unpack_bucket(bytes(rotted), checksummed=True)

    def test_checksummed_slot_without_a_trailer_is_corruption(self):
        # Regression: a damaged trailer magic used to read as "legacy slot,
        # no checksum", switching verification off for that bucket — so
        # damage to an entry in the same slot went unnoticed.
        entries = [(fp, i) for i, fp in enumerate(make_fps(5))]
        blob = bytearray(pack_bucket(entries, 512, checksum=True))
        blob[-8] ^= 0x01  # one bit of the trailer magic
        blob[10] ^= 0xFF  # and an entry byte
        with pytest.raises(CorruptionError, match="trailer missing") as exc:
            unpack_bucket(bytes(blob), checksummed=True)
        assert exc.value.artifact == "index"
        # An unchecksummed slot (memory-store index) has no trailer at all.
        with pytest.raises(CorruptionError):
            unpack_bucket(pack_bucket(entries, 512), checksummed=True)
        assert unpack_bucket(pack_bucket(entries, 512)) == entries

    def test_all_zero_slot_is_an_empty_bucket(self):
        assert unpack_bucket(bytes(512), checksummed=True) == []
        assert unpack_bucket(bytes(512)) == []


class TestConstruction:
    def test_geometry(self):
        index = DiskIndex(8, bucket_bytes=512)
        assert index.n_buckets == 256
        assert index.size_bytes == 256 * 512
        assert index.capacity_entries == 256 * 20

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DiskIndex(0)
        with pytest.raises(ValueError):
            DiskIndex(4, bucket_bytes=500)
        with pytest.raises(ValueError):
            DiskIndex(4, prefix_bits=-1)
        with pytest.raises(ValueError):
            DiskIndex(4, prefix_bits=2, prefix_value=4)

    def test_file_backed(self, tmp_path):
        store = FileBlockStore(tmp_path / "idx.bin", 16 * 512)
        index = DiskIndex(4, bucket_bytes=512, store=store)
        fps = make_fps(30)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        for i, fp in enumerate(fps):
            assert index.lookup(fp) == i

    def test_file_backed_persistence(self, tmp_path):
        path = tmp_path / "persist.bin"
        store = FileBlockStore(path, 16 * 512)
        index = DiskIndex(4, bucket_bytes=512, store=store)
        fps = make_fps(25)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        store.flush()
        store.close()
        # Reattach: counts must be rebuilt from disk.
        store2 = FileBlockStore(path, 16 * 512)
        index2 = DiskIndex(4, bucket_bytes=512, store=store2)
        assert len(index2) == 25
        for i, fp in enumerate(fps):
            assert index2.lookup(fp) == i

    def test_file_backed_trailer_damage_raises_on_read(self, tmp_path):
        path = tmp_path / "rot.bin"
        store = FileBlockStore(path, 16 * 512)
        index = DiskIndex(4, bucket_bytes=512, store=store)
        fp = make_fps(1)[0]
        k = index.insert(fp, 7)
        store.flush()
        store.close()
        blob = bytearray(path.read_bytes())
        blob[(k + 1) * 512 - 8] ^= 0x01  # one bit of bucket k's trailer magic
        path.write_bytes(bytes(blob))
        reopened = DiskIndex(4, bucket_bytes=512, store=FileBlockStore(path, 16 * 512))
        with pytest.raises(CorruptionError, match=f"bucket {k} trailer missing") as exc:
            reopened.lookup(fp)
        assert exc.value.offset == k * 512
        # Never-written (all-zero) buckets still read as empty.
        assert reopened.read_bucket((k + 2) % 16).entries == []

    def test_too_small_store_rejected(self, tmp_path):
        store = FileBlockStore(tmp_path / "small.bin", 512)
        with pytest.raises(ValueError):
            DiskIndex(4, bucket_bytes=512, store=store)


class TestLoadCounts:
    """Reopening reads the bucket headers a slab at a time; the cache must
    equal what one read per header gives."""

    @staticmethod
    def per_bucket_counts(index):
        return [min(index.on_disk_count(k), index.bucket_capacity)
                for k in range(index.n_buckets)]

    # A 2 MiB index (32 slabs), buckets that do not divide a slab, and
    # buckets larger than one.
    @pytest.mark.parametrize("n_bits, bucket_bytes", [(12, 512), (7, 1536), (3, 128 * 1024)])
    def test_reopen_equals_the_per_bucket_loop(self, tmp_path, n_bits, bucket_bytes):
        path = tmp_path / "idx.bin"
        size = (1 << n_bits) * bucket_bytes
        store = FileBlockStore(path, size)
        index = DiskIndex(n_bits, bucket_bytes=bucket_bytes, store=store)
        for i, fp in enumerate(make_fps(3 * (1 << n_bits))):
            index.insert(fp, i)
        store.flush()
        store.close()
        # Bucket 1's header claims more entries than a bucket can hold.
        blob = bytearray(path.read_bytes())
        blob[bucket_bytes : bucket_bytes + 4] = (10**6).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        reopened = DiskIndex(n_bits, bucket_bytes=bucket_bytes, store=FileBlockStore(path, size))
        expected = self.per_bucket_counts(reopened)
        assert reopened._counts == expected
        assert reopened._counts[1] == reopened.bucket_capacity  # clamped
        assert reopened.entry_count == sum(expected)

    def test_audit_still_reads_each_header(self, tmp_path):
        store = FileBlockStore(tmp_path / "idx.bin", 64 * 512)
        index = DiskIndex(6, bucket_bytes=512, store=store, checksummed=False)
        for i, fp in enumerate(make_fps(150)):
            index.insert(fp, i)
        reopened = DiskIndex(6, bucket_bytes=512, store=store, checksummed=False)
        assert audit_index(reopened).ok
        k = next(k for k in range(64) if reopened._counts[k])
        store.write(k * 512, (reopened._counts[k] - 1).to_bytes(4, "little"))
        report = audit_index(reopened)
        assert [f.code for f in report.findings] == ["count-cache"]


class TestInsertLookup:
    def test_missing_returns_none(self):
        index = DiskIndex(4, bucket_bytes=512)
        assert index.lookup(make_fps(1)[0]) is None

    def test_insert_then_found(self):
        index = DiskIndex(6, bucket_bytes=512)
        fps = make_fps(200)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        assert len(index) == 200
        for i, fp in enumerate(fps):
            assert index.lookup(fp) == i

    def test_contains(self):
        index = DiskIndex(4, bucket_bytes=512)
        fp = make_fps(1)[0]
        assert fp not in index
        index.insert(fp, 1)
        assert fp in index

    def test_home_bucket_placement(self):
        index = DiskIndex(4, bucket_bytes=512)
        fp = make_fps(1)[0]
        home = index.bucket_number(fp)
        assert index.insert(fp, 9) == home

    def test_invalid_container_id(self):
        index = DiskIndex(4, bucket_bytes=512)
        with pytest.raises(ValueError):
            index.insert(make_fps(1)[0], -1)

    def test_invalid_fingerprint(self):
        index = DiskIndex(4, bucket_bytes=512)
        with pytest.raises(ValueError):
            index.insert(b"short", 0)

    def test_update_existing(self):
        index = DiskIndex(4, bucket_bytes=512)
        fp = make_fps(1)[0]
        index.insert(fp, 1)
        assert index.update(fp, 42)
        assert index.lookup(fp) == 42
        assert len(index) == 1

    def test_update_missing(self):
        index = DiskIndex(4, bucket_bytes=512)
        assert not index.update(make_fps(1)[0], 5)

    def test_utilization_tracks_entries(self):
        index = DiskIndex(4, bucket_bytes=512)
        assert index.utilization == 0.0
        for i, fp in enumerate(make_fps(32)):
            index.insert(fp, i)
        assert index.utilization == pytest.approx(32 / (16 * 20))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=150), st.integers(min_value=0, max_value=9))
    def test_property_all_inserted_found(self, count, salt):
        index = DiskIndex(5, bucket_bytes=512, seed=salt)
        fps = make_fps(count, start=salt * 1000)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        assert all(index.lookup(fp) == i for i, fp in enumerate(fps))


class TestOverflow:
    def _fps_for_bucket(self, index, bucket, count, start=0):
        """Fingerprints homed at a specific bucket."""
        out = []
        offset = start
        while len(out) < count:
            batch = make_fps(200, start=offset)
            out.extend(fp for fp in batch if index.bucket_number(fp) == bucket)
            offset += 200
        return out[:count]

    def test_overflow_goes_to_adjacent(self):
        index = DiskIndex(4, bucket_bytes=512)
        cap = index.bucket_capacity
        fps = self._fps_for_bucket(index, 5, cap + 3)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        # All entries findable despite overflow.
        for i, fp in enumerate(fps):
            assert index.lookup(fp) == i
        # Home bucket is exactly full; neighbours hold the rest.
        assert len(index.read_bucket(5).entries) == cap
        spill = len(index.read_bucket(4).entries) + len(index.read_bucket(6).entries)
        assert spill == 3

    def test_index_full_error_when_triple_full(self):
        index = DiskIndex(4, bucket_bytes=512)
        cap = index.bucket_capacity
        for bucket in (4, 5, 6):
            for i, fp in enumerate(self._fps_for_bucket(index, bucket, cap, start=bucket * 5000)):
                index.insert(fp, i)
        extra = self._fps_for_bucket(index, 5, 1, start=90000)[0]
        with pytest.raises(IndexFullError) as exc:
            index.insert(extra, 0)
        assert exc.value.bucket == 5
        assert 0 < exc.value.utilization <= 1

    def test_neighbour_wraparound(self):
        index = DiskIndex(4, bucket_bytes=512)
        cap = index.bucket_capacity
        fps = self._fps_for_bucket(index, 0, cap + 2)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        for i, fp in enumerate(fps):
            assert index.lookup(fp) == i
        # Spill lives in bucket 15 and/or 1 (circular adjacency).
        spill = len(index.read_bucket(15).entries) + len(index.read_bucket(1).entries)
        assert spill == 2

    def test_full_bucket_fraction(self):
        index = DiskIndex(4, bucket_bytes=512)
        assert index.full_bucket_fraction() == 0.0
        for i, fp in enumerate(self._fps_for_bucket(index, 3, index.bucket_capacity)):
            index.insert(fp, i)
        assert index.full_bucket_fraction() == pytest.approx(1 / 16)


class TestPullBackCascade:
    def _fps_for_bucket(self, index, bucket, count, start=0):
        out = []
        offset = start
        while len(out) < count:
            batch = make_fps(200, start=offset)
            out.extend(fp for fp in batch if index.bucket_number(fp) == bucket)
            offset += 200
        return out[:count]

    def _build_overflow_chain(self, index):
        """Three adjacent full buckets with a two-link overflow chain:
        bucket 6's spill sits in 5, bucket 5's spill sits in 4."""
        cap = index.bucket_capacity
        for i, fp in enumerate(self._fps_for_bucket(index, 7, cap, start=70_000)):
            index.insert(fp, i)  # 7 full: forces 6's overflow leftward
        for i, fp in enumerate(self._fps_for_bucket(index, 6, cap, start=60_000)):
            index.insert(fp, i)
        index.insert(self._fps_for_bucket(index, 6, 1, start=90_000)[0], 99)
        for i, fp in enumerate(self._fps_for_bucket(index, 5, cap - 1, start=50_000)):
            index.insert(fp, i)  # 5 now full (holds 6's spill)
        spilled = self._fps_for_bucket(index, 5, 1, start=95_000)[0]
        index.insert(spilled, 98)  # 6 full, so 5's spill lands in 4
        return spilled

    def test_delete_chain_pulls_back_transitively(self):
        """Regression: deleting from a full bucket whose neighbour is also
        full must cascade the pull-back, or the neighbour's own overflow
        (two buckets from home) becomes unreachable."""
        index = DiskIndex(4, bucket_bytes=512)
        spilled = self._build_overflow_chain(index)
        assert index.lookup(spilled) == 98
        victim = next(
            fp for fp, _ in index.read_bucket(6).entries
            if index.bucket_number(fp) == 6
        )
        assert index.delete(victim)
        # The cascade re-homed both links of the chain.
        assert index.lookup(spilled) == 98
        assert index.read_bucket(index.bucket_number(spilled)).find(spilled) == 98
        for fp, cid in index.iter_entries():
            assert index.lookup(fp) == cid

    def test_delete_chain_audits_clean(self):
        from repro.audit import audit_index

        index = DiskIndex(4, bucket_bytes=512)
        self._build_overflow_chain(index)
        victim = next(
            fp for fp, _ in index.read_bucket(6).entries
            if index.bucket_number(fp) == 6
        )
        index.delete(victim)
        assert audit_index(index).ok

    def test_every_delete_preserves_reachability(self):
        # Drain the whole chained state one delete at a time; no order of
        # deletions may strand a surviving entry.
        index = DiskIndex(4, bucket_bytes=512)
        self._build_overflow_chain(index)
        remaining = dict(index.iter_entries())
        for fp in list(remaining):
            assert index.delete(fp)
            del remaining[fp]
            for other, cid in remaining.items():
                assert index.lookup(other) == cid


class TestDegenerateSmallIndex:
    """n_bits == 1: both 'adjacent' buckets are the same bucket."""

    def _fps_for_bucket(self, index, bucket, count):
        out, offset = [], 0
        while len(out) < count:
            batch = make_fps(200, start=offset)
            out.extend(fp for fp in batch if index.bucket_number(fp) == bucket)
            offset += 200
        return out[:count]

    def test_single_distinct_neighbour(self):
        index = DiskIndex(1, bucket_bytes=512)
        assert index.neighbours(0) == (1,)
        assert index.neighbours(1) == (0,)
        # Two buckets: each neighbours the other once, not twice.
        wider = DiskIndex(2, bucket_bytes=512)
        assert wider.neighbours(0) == (3, 1)

    def test_overflow_lands_in_the_single_neighbour(self):
        index = DiskIndex(1, bucket_bytes=512)
        cap = index.bucket_capacity
        fps = self._fps_for_bucket(index, 0, cap + 2)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        for i, fp in enumerate(fps):
            assert index.lookup(fp) == i
        assert len(index.read_bucket(1).entries) == 2

    def test_honest_probe_count(self):
        # A miss in a full home bucket probes exactly one neighbour, not
        # the same bucket twice.
        index = DiskIndex(1, bucket_bytes=512)
        cap = index.bucket_capacity
        for i, fp in enumerate(self._fps_for_bucket(index, 0, cap)):
            index.insert(fp, i)
        missing = self._fps_for_bucket(index, 0, cap + 1)[cap]
        cid, probes = index.lookup_with_probes(missing)
        assert cid is None
        assert probes == 2

    def test_full_error_when_both_buckets_full(self):
        index = DiskIndex(1, bucket_bytes=512)
        cap = index.bucket_capacity
        fps = self._fps_for_bucket(index, 0, cap) + self._fps_for_bucket(
            index, 1, cap
        )
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        extra = self._fps_for_bucket(index, 0, cap + 1)[cap]
        with pytest.raises(IndexFullError):
            index.insert(extra, 0)

    def test_delete_pull_back_in_two_bucket_index(self):
        from repro.audit import audit_index

        index = DiskIndex(1, bucket_bytes=512)
        cap = index.bucket_capacity
        fps = self._fps_for_bucket(index, 0, cap + 1)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        assert index.delete(fps[0])
        # The spilled entry is pulled home; the invariant holds.
        for i, fp in enumerate(fps[1:], start=1):
            assert index.lookup(fp) == i
        assert audit_index(index).ok


class TestBucketIO:
    def test_range_bounds(self):
        index = DiskIndex(4, bucket_bytes=512)
        with pytest.raises(ValueError):
            index.read_bucket(16)

    def test_bucket_find(self):
        fps = make_fps(3)
        bucket = Bucket(0, [(fps[0], 1), (fps[1], 2)], capacity=20)
        assert bucket.find(fps[0]) == 1
        assert bucket.find(fps[2]) is None
        assert not bucket.full


class TestInsertDeleteModel:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=59)),
            min_size=1,
            max_size=120,
        )
    )
    def test_property_matches_dict_model(self, ops):
        """Random insert/delete interleavings agree with a dict reference,
        including through overflow and pull-back compaction."""
        universe = make_fps(60)
        index = DiskIndex(3, bucket_bytes=512)  # 8 buckets: heavy overflow
        model = {}
        for is_insert, i in ops:
            fp = universe[i]
            if is_insert:
                if fp not in model:
                    index.insert(fp, i)
                    model[fp] = i
            else:
                assert index.delete(fp) == (fp in model)
                model.pop(fp, None)
            assert len(index) == len(model)
        for fp in universe:
            assert index.lookup(fp) == model.get(fp)
        assert dict(index.iter_entries()) == model


class TestIterAndRebuild:
    def test_iter_entries_complete(self):
        index = DiskIndex(5, bucket_bytes=512)
        fps = make_fps(80)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        entries = dict(index.iter_entries())
        assert entries == {fp: i for i, fp in enumerate(fps)}

    def test_rebuild_from_entries(self):
        source = DiskIndex(5, bucket_bytes=512)
        fps = make_fps(60)
        for i, fp in enumerate(fps):
            source.insert(fp, i)
        rebuilt = DiskIndex.rebuild_from_entries(source.iter_entries(), 6, bucket_bytes=512)
        assert len(rebuilt) == 60
        for i, fp in enumerate(fps):
            assert rebuilt.lookup(fp) == i

    def test_snapshot_only_nonempty(self):
        index = DiskIndex(6, bucket_bytes=512)
        index.insert(make_fps(1)[0], 3)
        snap = index.snapshot()
        assert len(snap) == 1
        assert list(snap.values())[0][0][1] == 3
