"""Tests for the on-disk container repository."""

import pytest

from repro.storage import ContainerWriter
from repro.storage.file_repository import FileChunkRepository
from tests.conftest import make_fps


def sealed(cid, start=0, n=3, capacity=4096):
    writer = ContainerWriter(capacity=capacity)
    for i, fp in enumerate(make_fps(n, start=start)):
        writer.add(fp, data=bytes([65 + i]) * 50)
    return writer.seal(cid)


class TestFileChunkRepository:
    def test_store_creates_file(self, tmp_path):
        repo = FileChunkRepository(tmp_path / "repo", container_bytes=4096)
        cid = repo.allocate_id()
        repo.store(sealed(cid))
        files = list((tmp_path / "repo").glob("*.ctr"))
        assert len(files) == 1
        assert files[0].stat().st_size == 4096

    def test_fetch_roundtrip(self, tmp_path):
        repo = FileChunkRepository(tmp_path / "repo", container_bytes=4096)
        cid = repo.allocate_id()
        original = sealed(cid)
        repo.store(original)
        fetched = repo.fetch(cid)
        assert fetched is not original  # read back from the file
        assert fetched.records == original.records
        for fp in original.fingerprints:
            assert fetched.get(fp) == original.get(fp)

    def test_persistence_across_reopen(self, tmp_path):
        root = tmp_path / "repo"
        repo = FileChunkRepository(root, container_bytes=4096)
        cids = []
        for i in range(3):
            cid = repo.allocate_id()
            repo.store(sealed(cid, start=i * 10))
            cids.append(cid)
        reopened = FileChunkRepository(root, container_bytes=4096)
        assert len(reopened) == 3
        assert reopened.container_ids() == cids
        # ID allocation continues past existing containers.
        assert reopened.allocate_id() == 3
        for cid in cids:
            reopened.fetch(cid)

    def test_duplicate_store_rejected(self, tmp_path):
        repo = FileChunkRepository(tmp_path / "repo", container_bytes=4096)
        c = sealed(repo.allocate_id())
        repo.store(c)
        with pytest.raises(ValueError):
            repo.store(c)

    def test_fetch_missing(self, tmp_path):
        repo = FileChunkRepository(tmp_path / "repo", container_bytes=4096)
        with pytest.raises(KeyError):
            repo.fetch(99)
        with pytest.raises(KeyError):
            repo.locate(99)

    def test_open_missing_without_create(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FileChunkRepository(tmp_path / "missing", create=False)

    def test_iter_index_entries_survives_reopen(self, tmp_path):
        root = tmp_path / "repo"
        repo = FileChunkRepository(root, container_bytes=4096)
        expected = {}
        for i in range(2):
            cid = repo.allocate_id()
            c = sealed(cid, start=i * 10)
            repo.store(c)
            for fp in c.fingerprints:
                expected[fp] = cid
        reopened = FileChunkRepository(root, container_bytes=4096)
        assert dict(reopened.iter_index_entries()) == expected

    def test_stored_chunk_bytes(self, tmp_path):
        repo = FileChunkRepository(tmp_path / "repo", container_bytes=4096)
        repo.store(sealed(repo.allocate_id(), n=4))
        assert repo.stored_chunk_bytes == 4 * 50
