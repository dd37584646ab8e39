"""Tests for the page-sparse in-memory block store and the append cost model."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.simdisk import DiskModel
from repro.storage import MemoryBlockStore
from repro.util import MB

PAGE = 4096


def resident_bytes() -> int:
    """This process's resident set size (Linux ``/proc/self/statm``)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE


class TestMemoryBlockStorePages:
    def test_zero_initialised(self):
        store = MemoryBlockStore(1 << 20)
        assert store.read(12345, 100) == b"\x00" * 100
        assert store.read(0, 1 << 20) == bytes(1 << 20)

    def test_write_read_roundtrip(self):
        store = MemoryBlockStore(1 << 20)
        store.write(5000, b"hello sparse world")
        assert store.read(5000, 18) == b"hello sparse world"

    def test_write_spanning_pages(self):
        store = MemoryBlockStore(1 << 20)
        payload = bytes(range(256)) * 40  # 10240 bytes, > 2 pages
        store.write(4000, payload)  # crosses page boundaries
        assert store.read(4000, len(payload)) == payload
        # Neighbouring bytes stay zero.
        assert store.read(3999, 1) == b"\x00"
        assert store.read(4000 + len(payload), 1) == b"\x00"

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/self/statm"
    )
    def test_resident_memory_tracks_written_pages(self):
        rng = random.Random(7)
        before = resident_bytes()
        store = MemoryBlockStore(1 << 30)  # 1 GiB addressable
        writes = [
            (rng.randrange(0, (1 << 30) - 8192), rng.randbytes(8192))
            for _ in range(16)
        ]
        for offset, data in writes:
            store.write(offset, data)
        grown = resident_bytes() - before
        # 16 writes touch at most 48 pages; a dense 1 GiB buffer would be
        # resident in full.
        assert grown < 4 * MB
        for offset, data in writes:
            assert store.read(offset, len(data)) == data

    def test_bounds_checked(self):
        store = MemoryBlockStore(1024)
        with pytest.raises(ValueError):
            store.read(1000, 100)
        with pytest.raises(ValueError):
            store.write(1020, b"too long")
        with pytest.raises(ValueError):
            store.read(-1, 4)
        with pytest.raises(ValueError):
            MemoryBlockStore(0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=60_000), st.binary(min_size=1, max_size=5000)),
            min_size=1,
            max_size=12,
        )
    )
    def test_property_matches_bytearray_model(self, writes):
        """The store is observably identical to a plain ``bytearray``."""
        size = 1 << 16
        store = MemoryBlockStore(size)
        model = bytearray(size)
        for offset, data in writes:
            data = data[: size - offset]
            if not data:
                continue
            store.write(offset, data)
            model[offset : offset + len(data)] = data
            assert store.read(offset, len(data)) == data
        assert store.read(0, size) == bytes(model)


class TestAppendCostModel:
    def test_append_write_has_no_positioning(self):
        disk = DiskModel(seq_write_rate=100 * MB, random_io_time=0.015)
        assert disk.append_write_time(100 * MB) == pytest.approx(1.0)
        assert disk.seq_write_time(100 * MB) == pytest.approx(1.015)

    def test_append_read_has_no_positioning(self):
        disk = DiskModel(seq_read_rate=100 * MB, random_io_time=0.015)
        assert disk.append_read_time(100 * MB) == pytest.approx(1.0)

    def test_zero_bytes_free(self):
        disk = DiskModel()
        assert disk.append_write_time(0) == 0.0
        assert disk.append_read_time(0) == 0.0

    def test_negative_rejected(self):
        disk = DiskModel()
        with pytest.raises(ValueError):
            disk.append_write_time(-1)
        with pytest.raises(ValueError):
            disk.append_read_time(-1)
