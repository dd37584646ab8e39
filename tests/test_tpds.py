"""Tests for the single-server two-phase de-duplication scheme."""

import random

import pytest

from repro.core.disk_index import DiskIndex
from repro.core.fingerprint import fingerprint
from repro.core.tpds import TwoPhaseDeduplicator
from repro.storage import ChunkRepository
from tests.conftest import make_fps


def make_tpds(siu_every=1, n_bits=8, container_bytes=64 * 1024, **kwargs):
    index = DiskIndex(n_bits, bucket_bytes=512)
    repo = ChunkRepository()
    tpds = TwoPhaseDeduplicator(
        index,
        repo,
        filter_capacity=4096,
        cache_capacity=1 << 20,
        container_bytes=container_bytes,
        siu_every=siu_every,
        **kwargs,
    )
    return tpds, repo


def stream(fps, size=8192):
    return [(fp, size) for fp in fps]


class TestDedup1:
    def test_new_data_fully_transferred(self):
        tpds, _ = make_tpds()
        fps = make_fps(100)
        stats, file_index = tpds.dedup1_backup(stream(fps))
        assert stats.logical_chunks == 100
        assert stats.transferred_chunks == 100
        assert stats.filtered_chunks == 0
        assert file_index == fps
        assert tpds.undetermined_count == 100
        assert len(tpds.chunk_log) == 100

    def test_filtering_fps_suppress_transfer(self):
        tpds, _ = make_tpds()
        fps = make_fps(100)
        tpds.dedup1_backup(stream(fps))
        stats, _ = tpds.dedup1_backup(stream(fps), filtering_fps=fps)
        assert stats.transferred_chunks == 0
        assert stats.filtered_chunks == 100
        assert stats.compression_ratio == float("inf")

    def test_internal_duplication_filtered(self):
        tpds, _ = make_tpds()
        fps = make_fps(50)
        stats, _ = tpds.dedup1_backup(stream(fps + fps))
        assert stats.transferred_chunks == 50
        assert stats.filtered_chunks == 50
        assert stats.compression_ratio == pytest.approx(2.0)

    def test_file_index_includes_duplicates(self):
        # The file index must reference every chunk, filtered or not.
        tpds, _ = make_tpds()
        fps = make_fps(10)
        _, file_index = tpds.dedup1_backup(stream(fps + fps))
        assert file_index == fps + fps

    def test_time_charged(self):
        tpds, _ = make_tpds()
        stats, _ = tpds.dedup1_backup(stream(make_fps(100)))
        assert stats.elapsed > 0
        assert stats.throughput > 0
        assert tpds.meter.by_category["dedup1.pipeline"] > 0


class TestPayloadGuard:
    """A materialized engine never logs an admitted chunk without its data."""

    @staticmethod
    def chunks(n, seed=5):
        rng = random.Random(seed)
        blobs = [rng.randbytes(700) for _ in range(n)]
        return [(fingerprint(b), len(b), b) for b in blobs]

    def test_missing_payload_refuses_the_session_and_logs_nothing(self):
        tpds, _ = make_tpds(materialize=True)
        chunks = self.chunks(4)
        fp, size, _ = chunks[2]
        chunks[2] = (fp, size, None)
        with pytest.raises(ValueError, match="payload never arrived"):
            tpds.dedup1_backup(chunks)
        assert len(tpds.chunk_log) == 0
        assert tpds.undetermined_count == 0

    def test_missing_payload_of_a_stored_chunk_counts_as_filtered(self):
        tpds, _ = make_tpds(materialize=True)
        stored = self.chunks(3)
        tpds.dedup1_backup(stored)
        tpds.dedup2()
        fresh = self.chunks(2, seed=6)
        # The filter was not preloaded, so the stored chunk is admitted
        # again; the client knew it was stored and sent no payload.
        fp, size, _ = stored[0]
        stats, _ = tpds.dedup1_backup([(fp, size, None)] + fresh)
        assert stats.transferred_chunks == 2
        assert stats.filtered_chunks == 1
        assert [record.fingerprint for record in tpds.chunk_log.replay()] == [
            c[0] for c in fresh
        ]
        assert tpds.dedup2().new_chunks_stored == 2


class TestDedup2:
    def test_stores_new_chunks(self):
        tpds, repo = make_tpds()
        fps = make_fps(100)
        tpds.dedup1_backup(stream(fps))
        stats = tpds.dedup2()
        assert stats.new_chunks_stored == 100
        assert stats.siu_performed
        assert repo.stored_chunk_bytes == 100 * 8192
        assert len(tpds.index) == 100
        assert tpds.undetermined_count == 0
        assert len(tpds.chunk_log) == 0

    def test_sil_identifies_duplicates_across_jobs(self):
        tpds, repo = make_tpds()
        fps = make_fps(100)
        tpds.dedup1_backup(stream(fps))
        tpds.dedup2()
        # Same data, different job (no filtering fps): SIL must catch it.
        tpds.dedup1_backup(stream(fps))
        stats = tpds.dedup2()
        assert stats.new_chunks_stored == 0
        assert stats.duplicate_chunks == 100
        assert len(tpds.index) == 100

    def test_within_log_duplicates_stored_once(self):
        # Two jobs in one dedup-2 cycle sharing chunks (separate filters).
        tpds, repo = make_tpds()
        fps = make_fps(60)
        tpds.dedup1_backup(stream(fps))
        tpds.dedup1_backup(stream(fps))
        assert tpds.undetermined_count == 120
        stats = tpds.dedup2()
        assert stats.new_chunks_stored == 60
        assert stats.log_records_discarded == 60
        assert len(tpds.index) == 60

    def test_empty_dedup2(self):
        tpds, _ = make_tpds()
        stats = tpds.dedup2()
        assert stats.new_chunks_stored == 0
        assert stats.sil_rounds == 0
        assert not stats.siu_performed

    def test_multiple_sil_rounds_when_cache_small(self):
        tpds, _ = make_tpds()
        tpds.cache_capacity = 30
        tpds.dedup1_backup(stream(make_fps(100)))
        stats = tpds.dedup2()
        assert stats.sil_rounds == 4
        assert stats.new_chunks_stored == 100

    def test_cross_round_duplicate_counted_and_stored_once(self):
        """Regression: a fingerprint split across two SIL rounds (separate
        dedup-1 sessions, so the preliminary filter cannot merge them) is
        'new' in both rounds; the cache merge must count the later sighting
        as a duplicate so the stats add up with the chunk-log replay."""
        tpds, repo = make_tpds()
        tpds.cache_capacity = 4
        fps = make_fps(7)
        tpds.dedup1_backup(stream(fps[:4]))          # round 1: a b c d
        tpds.dedup1_backup(stream([fps[0]] + fps[4:]))  # round 2: a e f g
        assert tpds.undetermined_count == 8
        stats = tpds.dedup2()
        assert stats.sil_rounds == 2
        assert stats.new_chunks_stored == 7
        assert stats.log_records_discarded == 1
        assert stats.duplicate_chunks == 1
        # Accounting identity: every log record is stored or discarded,
        # and every undetermined fingerprint is new or duplicate.
        assert stats.log_chunks_processed == 8
        assert stats.new_chunks_stored + stats.duplicate_chunks == 8
        assert len(tpds.index) == 7
        assert repo.stored_chunk_bytes == 7 * 8192

    def test_stats_timing_decomposition(self):
        tpds, _ = make_tpds()
        tpds.dedup1_backup(stream(make_fps(100)))
        stats = tpds.dedup2()
        assert stats.sil_time > 0
        assert stats.storing_time > 0
        assert stats.siu_time > 0
        assert stats.elapsed == pytest.approx(
            stats.sil_time + stats.storing_time + stats.siu_time, rel=1e-6
        )

    def test_containers_have_affinity_and_ids(self):
        tpds, repo = make_tpds()
        tpds.dedup1_backup(stream(make_fps(40)))
        stats = tpds.dedup2()
        assert stats.containers_written == len(repo)
        assert stats.containers_written >= 40 * 8192 // (64 * 1024)


class TestAsynchronousSiu:
    def test_siu_deferred_until_policy(self):
        tpds, _ = make_tpds(siu_every=2)
        tpds.dedup1_backup(stream(make_fps(30)))
        s1 = tpds.dedup2()
        assert not s1.siu_performed
        assert len(tpds.index) == 0
        assert tpds.unregistered_count == 30
        tpds.dedup1_backup(stream(make_fps(30, start=100)))
        s2 = tpds.dedup2()
        assert s2.siu_performed
        assert len(tpds.index) == 60
        assert tpds.unregistered_count == 0

    def test_checking_file_prevents_duplicate_store(self):
        """A chunk stored before its SIU must not be stored again by a
        later SIL round (the Section 5.4 mechanism)."""
        tpds, repo = make_tpds(siu_every=10)  # SIU effectively disabled
        fps = make_fps(50)
        tpds.dedup1_backup(stream(fps))
        s1 = tpds.dedup2()
        assert s1.new_chunks_stored == 50
        assert not s1.siu_performed
        # Same fingerprints again: index still empty, checking file must act.
        tpds.dedup1_backup(stream(fps))
        s2 = tpds.dedup2()
        assert s2.new_chunks_stored == 0
        assert s2.duplicate_chunks == 50
        assert repo.stored_chunk_bytes == 50 * 8192

    def test_force_siu_override(self):
        tpds, _ = make_tpds(siu_every=10)
        tpds.dedup1_backup(stream(make_fps(10)))
        stats = tpds.dedup2(force_siu=True)
        assert stats.siu_performed
        tpds.dedup1_backup(stream(make_fps(10, start=50)))
        stats = tpds.dedup2(force_siu=False)
        assert not stats.siu_performed


class TestCapacityScalingPath:
    def test_index_scales_when_full(self):
        # A tiny index (4 buckets x 20 entries = 80) forced past capacity.
        tpds, _ = make_tpds(n_bits=2)
        fps = make_fps(120)
        tpds.dedup1_backup(stream(fps))
        stats = tpds.dedup2()
        assert stats.capacity_scalings >= 1
        assert tpds.index.n_bits > 2
        assert len(tpds.index) == 120
        for fp in fps:
            assert tpds.index.lookup(fp) is not None

    def test_scaling_charged_to_meter(self):
        tpds, _ = make_tpds(n_bits=2)
        tpds.dedup1_backup(stream(make_fps(120)))
        tpds.dedup2()
        assert tpds.meter.by_category["scale.read"] > 0
        assert tpds.meter.by_category["scale.write"] > 0


class TestClusterHooks:
    def test_drain_undetermined(self):
        tpds, _ = make_tpds()
        fps = make_fps(20)
        tpds.dedup1_backup(stream(fps))
        drained = tpds.drain_undetermined()
        assert drained == fps
        assert tpds.undetermined_count == 0

    def test_store_from_log_respects_external_decisions(self):
        tpds, repo = make_tpds()
        fps = make_fps(20)
        tpds.dedup1_backup(stream(fps))
        tpds.drain_undetermined()
        stored, stats = tpds.store_from_log(fps[:5])
        assert set(stored) == set(fps[:5])
        assert stats.new_chunks_stored == 5
        assert stats.log_records_discarded == 15
        assert repo.stored_chunk_bytes == 5 * 8192

    def test_accept_unregistered_then_siu(self):
        tpds, _ = make_tpds()
        entries = {fp: 3 for fp in make_fps(10)}
        tpds.accept_unregistered(entries)
        assert tpds.unregistered_count == 10
        tpds.run_siu_now()
        assert tpds.unregistered_count == 0
        assert len(tpds.index) == 10

    def test_invalid_siu_every(self):
        index = DiskIndex(4, bucket_bytes=512)
        with pytest.raises(ValueError):
            TwoPhaseDeduplicator(index, ChunkRepository(), siu_every=0)
