"""Tests for the backup client engine, the backup server's dedup-1 session
and its Chunk Store."""

import pytest

from repro.chunking import ContentDefinedChunker
from repro.client import BackupEngine
from repro.core.disk_index import DiskIndex
from repro.core.tpds import TwoPhaseDeduplicator
from repro.director.metadata import FileIndexEntry, FileMetadata
from repro.server import BackupServer, BackupServerConfig, ChunkStore, stream_file
from repro.storage import ChunkRepository
from tests.conftest import make_fps


def small_chunker():
    return ContentDefinedChunker(avg_bits=8, min_size=64, max_size=1024)


def make_tpds(materialize=True):
    index = DiskIndex(8, bucket_bytes=512)
    repo = ChunkRepository()
    return TwoPhaseDeduplicator(
        index, repo, filter_capacity=4096, cache_capacity=1 << 20,
        container_bytes=64 * 1024, materialize=materialize,
    )


def make_server(materialize=True, lpc_containers=16):
    config = BackupServerConfig(
        index_n_bits=8, index_bucket_bytes=512, filter_capacity=4096,
        container_bytes=64 * 1024, materialize=materialize,
        lpc_containers=lpc_containers,
    )
    return BackupServer(0, ChunkRepository(), config=config)


class TestBackupEngine:
    def test_scan_dataset_expands_dirs(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"a" * 100)
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "b.txt").write_bytes(b"b" * 100)
        engine = BackupEngine("c1")
        files = engine.scan_dataset([tmp_path])
        assert [f.name for f in files] == ["a.txt", "b.txt"]

    def test_scan_missing_raises(self):
        with pytest.raises(FileNotFoundError):
            BackupEngine("c1").scan_dataset(["/definitely/not/here"])

    def test_read_file_metadata_and_chunks(self, tmp_path):
        path = tmp_path / "f.bin"
        data = bytes(range(256)) * 40
        path.write_bytes(data)
        engine = BackupEngine("c1", chunker=small_chunker())
        metadata, chunks = engine.read_file(path)
        assert metadata.size == len(data)
        assert b"".join(c.data for c in chunks) == data

    def test_client_needs_name(self):
        with pytest.raises(ValueError):
            BackupEngine("")

    def test_restore_file_roundtrip(self, tmp_path):
        src = tmp_path / "src" / "doc.bin"
        src.parent.mkdir()
        data = bytes(range(256)) * 30
        src.write_bytes(data)
        engine = BackupEngine("c1", chunker=small_chunker())
        server = make_server()
        _, (entry,) = server.backup(engine.iter_stream([src]))
        server.tpds.dedup2()
        out = engine.restore_file(
            entry, server.chunk_store, tmp_path / "restore", strip_prefix=tmp_path
        )
        assert out.read_bytes() == data

    def test_restore_size_mismatch_detected(self, tmp_path):
        engine = BackupEngine("c1")
        fps = make_fps(1)
        server = make_server()
        server.backup([stream_file("/f", [(fps[0], 100, b"x" * 100)])])
        server.tpds.dedup2()
        bad_entry = FileIndexEntry(FileMetadata("/f", 999), fps)
        with pytest.raises(IOError):
            engine.restore_file(bad_entry, server.chunk_store, tmp_path)


class TestBackupSession:
    """``BackupServer.backup``: one job run's dedup-1 session."""

    def test_session_buffers_until_close(self):
        server = make_server(materialize=False)
        fps = make_fps(10)

        def files():
            yield stream_file("<stream>", [(fp, 8192) for fp in fps[:5]])
            assert server.undetermined_count == 0  # nothing ran yet
            yield stream_file("<more>", [(fp, 8192) for fp in fps[5:]])

        stats, entries = server.backup(files())
        assert stats.logical_chunks == 10
        assert server.undetermined_count == 10
        assert entries[0].fingerprints == fps[:5]
        assert entries[0].metadata.size == 5 * 8192

    def test_entries_per_file_in_order(self):
        server = make_server(materialize=False)
        fps = make_fps(6)
        files = [
            (FileMetadata("/a", 3 * 100), [(fp, 100) for fp in fps[:3]]),
            (FileMetadata("/b", 3 * 100), [(fp, 100) for fp in fps[3:]]),
        ]
        stats, entries = server.backup(files)
        assert [e.metadata.path for e in entries] == ["/a", "/b"]
        assert [e.fingerprints for e in entries] == [fps[:3], fps[3:]]
        assert stats.logical_bytes == 600

    def test_filtering_fps_applied(self):
        server = make_server(materialize=False)
        fps = make_fps(10)
        server.backup([stream_file("<stream>", [(fp, 8192) for fp in fps])])
        stats, _ = server.backup(
            [stream_file("<stream>", [(fp, 8192) for fp in fps])], filtering=fps
        )
        assert stats.transferred_chunks == 0
        assert server.undetermined_count == 10

    def test_failed_stream_appends_nothing(self):
        server = make_server()
        fps = make_fps(4)

        def files():
            yield FileMetadata("/a", 200), [(fp, 100, b"a" * 100) for fp in fps[:2]]
            raise OSError("dataset vanished")

        with pytest.raises(OSError):
            server.backup(files())
        assert server.undetermined_count == 0
        assert server.chunk_log_bytes == 0


class TestChunkStore:
    def test_read_chunk_via_lpc(self):
        server = make_server(materialize=False, lpc_containers=4)
        fps = make_fps(20)
        server.backup([stream_file("<stream>", [(fp, 8192) for fp in fps])])
        server.tpds.dedup2()
        store = server.chunk_store
        for fp in fps:
            assert len(store.read_chunk(fp)) == 8192
        # Sequential restore: few random lookups, high hit rate.
        assert store.random_lookups < len(fps)
        assert store.lpc_hit_rate > 0.5

    def test_read_pending_chunk_via_checking_file(self):
        # Stored but not yet SIU-registered chunks must still restore.
        server = make_server(materialize=False)
        server.tpds.siu_every = 10
        fps = make_fps(5)
        server.backup([stream_file("<stream>", [(fp, 8192) for fp in fps])])
        server.tpds.dedup2()  # SIU deferred
        assert len(server.index) == 0
        assert len(server.chunk_store.read_chunk(fps[0])) == 8192

    def test_read_missing_raises(self):
        store = ChunkStore(make_tpds(materialize=False))
        with pytest.raises(KeyError):
            store.read_chunk(make_fps(1)[0])


class TestBackupServer:
    def test_composition(self, small_config):
        repo = ChunkRepository()
        server = BackupServer(0, repo, config=small_config)
        assert server.index.n_bits == small_config.index_n_bits
        assert server.undetermined_count == 0
        assert server.chunk_log_bytes == 0
        assert server.owns(make_fps(1)[0])

    def test_index_part_prefix(self, small_config):
        repo = ChunkRepository()
        server = BackupServer(2, repo, config=small_config, w_bits=2)
        assert server.index.prefix_bits == 2
        assert server.index.prefix_value == 2
        owned = [fp for fp in make_fps(100) if server.owns(fp)]
        assert 0 < len(owned) < 100
