"""Tests for locality-preserved caching (LPC)."""

import pytest

from repro.storage import LocalityPreservedCache
from repro.storage.container import ChunkRecord, Container
from tests.conftest import make_fps


def group(cid, fps):
    """A metadata-only container holding ``fps``."""
    return Container(cid, [ChunkRecord(fp, 8, i * 8) for i, fp in enumerate(fps)])


class TestLookup:
    def test_miss_then_hit_after_prefetch(self):
        lpc = LocalityPreservedCache(4)
        fps = make_fps(10)
        assert lpc.lookup(fps[0]) is None
        lpc.insert_container(group(7, fps))
        for fp in fps:
            assert lpc.lookup(fp).container_id == 7

    def test_group_prefetch_pays_for_neighbours(self):
        # The LPC bet: one container insert makes the whole group hit.
        lpc = LocalityPreservedCache(4)
        fps = make_fps(100)
        lpc.insert_container(group(1, fps))
        assert all(lpc.lookup(fp).container_id == 1 for fp in fps)
        assert lpc.hits == 100
        assert lpc.prefetches == 1

    def test_hit_rate(self):
        lpc = LocalityPreservedCache(4)
        fps = make_fps(4)
        lpc.lookup(fps[0])  # miss
        lpc.insert_container(group(0, fps))
        lpc.lookup(fps[0])  # hit
        assert lpc.hit_rate == pytest.approx(0.5)

    def test_reset_stats(self):
        lpc = LocalityPreservedCache(4)
        lpc.lookup(make_fps(1)[0])
        lpc.reset_stats()
        assert lpc.misses == 0 and lpc.hit_rate == 0.0


class TestEviction:
    def test_lru_eviction_order(self):
        lpc = LocalityPreservedCache(2)
        groups = [make_fps(3, start=i * 10) for i in range(3)]
        lpc.insert_container(group(0, groups[0]))
        lpc.insert_container(group(1, groups[1]))
        lpc.lookup(groups[0][0])  # touch container 0: now MRU
        lpc.insert_container(group(2, groups[2]))  # evicts container 1
        assert 0 in lpc and 2 in lpc and 1 not in lpc
        assert lpc.lookup(groups[1][0]) is None
        assert lpc.evictions == 1

    def test_capacity_never_exceeded(self):
        lpc = LocalityPreservedCache(3)
        for i in range(10):
            lpc.insert_container(group(i, make_fps(2, start=i * 10)))
        assert len(lpc) == 3

    def test_reinsert_refreshes_lru(self):
        lpc = LocalityPreservedCache(2)
        lpc.insert_container(group(0, make_fps(2)))
        lpc.insert_container(group(1, make_fps(2, start=10)))
        lpc.insert_container(group(0, make_fps(2)))  # refresh, not duplicate
        lpc.insert_container(group(2, make_fps(2, start=20)))  # evicts 1
        assert 0 in lpc and 1 not in lpc

    def test_eviction_clears_fingerprints(self):
        lpc = LocalityPreservedCache(1)
        fps0 = make_fps(3)
        lpc.insert_container(group(0, fps0))
        lpc.insert_container(group(1, make_fps(3, start=10)))
        assert all(lpc.lookup(fp) is None for fp in fps0)

    def test_discard_forgets_the_container(self):
        lpc = LocalityPreservedCache(2)
        fps = make_fps(3)
        lpc.insert_container(group(0, fps))
        lpc.discard(0)
        lpc.discard(0)  # idempotent
        assert 0 not in lpc
        assert all(lpc.lookup(fp) is None for fp in fps)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LocalityPreservedCache(0)


class TestSislSynergy:
    def test_sequential_restore_hits_after_first_miss(self):
        """Restoring a SISL-ordered stream: one miss per container, then
        hits for every neighbour — the paper's >99 % elimination."""
        lpc = LocalityPreservedCache(8)
        containers = {cid: make_fps(50, start=cid * 100) for cid in range(4)}
        misses = 0
        for cid, fps in containers.items():
            for fp in fps:
                if lpc.lookup(fp) is None:
                    misses += 1
                    lpc.insert_container(group(cid, fps))
        assert misses == 4  # exactly one per container
        assert lpc.hit_rate > 0.97
