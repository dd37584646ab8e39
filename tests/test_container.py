"""Tests for containers, the SISL writer and the container manager."""

import pytest

from repro.durability.errors import CorruptionError, TornWriteError
from repro.storage import ChunkRepository, Container, ContainerManager, ContainerWriter
from repro.storage.container import ChunkRecord, default_payload
from tests.conftest import make_fps


class TestContainerWriter:
    def test_add_and_seal(self):
        writer = ContainerWriter(capacity=4096)
        fps = make_fps(3)
        for i, fp in enumerate(fps):
            assert writer.add(fp, data=bytes([i]) * 100)
        container = writer.seal(7)
        assert container.container_id == 7
        assert container.fingerprints == fps
        assert container.data_bytes == 300

    def test_sisl_order_preserved(self):
        # Stream-informed segment layout: chunks keep stream order.
        writer = ContainerWriter(capacity=1 << 16)
        fps = make_fps(20)
        for fp in fps:
            writer.add(fp, data=b"z" * 64)
        assert writer.seal(0).fingerprints == fps

    def test_fits_accounts_for_metadata(self):
        writer = ContainerWriter(capacity=256)
        # Payload alone would fit, payload+record must not.
        assert not writer.fits(256)
        assert writer.fits(100)

    def test_reject_when_full(self):
        writer = ContainerWriter(capacity=512)
        fp = make_fps(1)[0]
        assert writer.add(fp, data=b"a" * 300)
        assert not writer.add(make_fps(1, start=5)[0], data=b"b" * 300)
        assert len(writer) == 1

    def test_virtual_mode(self):
        writer = ContainerWriter(capacity=4096, materialize=False)
        fp = make_fps(1)[0]
        writer.add(fp, size=1000)
        container = writer.seal(1)
        assert container.data is None
        assert container.data_bytes == 1000

    def test_virtual_payload_regenerated(self):
        writer = ContainerWriter(capacity=4096, materialize=False)
        fp = make_fps(1)[0]
        writer.add(fp, size=100)
        container = writer.seal(1)
        payload = container.get(fp)
        assert payload == default_payload(fp, 100)
        assert len(payload) == 100

    def test_materialized_requires_data(self):
        writer = ContainerWriter(capacity=4096, materialize=True)
        with pytest.raises(ValueError):
            writer.add(make_fps(1)[0], size=100)

    def test_requires_data_or_size(self):
        writer = ContainerWriter(capacity=4096)
        with pytest.raises(ValueError):
            writer.add(make_fps(1)[0])

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError):
            ContainerWriter(capacity=16)


class TestContainer:
    def _container(self):
        writer = ContainerWriter(capacity=4096)
        fps = make_fps(4)
        for i, fp in enumerate(fps):
            writer.add(fp, data=bytes([65 + i]) * (50 + i))
        return writer.seal(3), fps

    def test_membership_and_get(self):
        container, fps = self._container()
        assert fps[0] in container
        assert make_fps(1, start=99)[0] not in container
        assert container.get(fps[1]) == b"B" * 51

    def test_record_for_missing(self):
        container, _ = self._container()
        with pytest.raises(KeyError):
            container.record_for(make_fps(1, start=99)[0])

    def test_offsets_describe_data_section(self):
        container, fps = self._container()
        for rec in container.records:
            assert container.data[rec.offset : rec.offset + rec.size] == container.get(
                rec.fingerprint
            )

    def test_serialize_roundtrip(self):
        container, fps = self._container()
        blob = container.serialize()
        assert len(blob) == container.capacity
        restored = Container.deserialize(3, blob, capacity=4096)
        assert restored.records == container.records
        for fp in fps:
            assert restored.get(fp) == container.get(fp)

    @pytest.mark.parametrize("bit", [0x01, 0x80])
    def test_image_without_superblock_magic_is_corruption(self, bit):
        # There is no unframed on-disk format: one flipped bit in the
        # magic is damage to report, never a different format to parse.
        container, _ = self._container()
        blob = bytearray(container.serialize())
        blob[0] ^= bit
        with pytest.raises(CorruptionError, match="bad superblock magic"):
            Container.deserialize(3, bytes(blob), capacity=4096)
        with pytest.raises(CorruptionError, match="bad superblock magic"):
            Container.parse_meta(3, bytes(blob[:1024]))

    def test_truncated_image_is_a_torn_write(self):
        container, _ = self._container()
        blob = container.serialize()
        records, data_start = Container.parse_meta(3, blob)
        assert records == container.records
        assert data_start == container.data_start
        for cut in (10, data_start - 1):
            with pytest.raises(TornWriteError):
                Container.deserialize(3, blob[:cut], capacity=4096)

    def test_serialize_virtual_rejected(self):
        writer = ContainerWriter(capacity=4096, materialize=False)
        writer.add(make_fps(1)[0], size=10)
        with pytest.raises(ValueError):
            writer.seal(0).serialize()

    def test_self_described(self):
        # The metadata section alone identifies every chunk (Section 3.4):
        # that is what index reconstruction relies on.
        container, fps = self._container()
        assert [r.fingerprint for r in container.records] == fps
        assert container.metadata_bytes > 0


class TestContainerManager:
    def test_store_assigns_sequential_ids(self):
        repo = ChunkRepository()
        mgr = ContainerManager(repo)
        ids = []
        for i in range(3):
            writer = ContainerWriter(capacity=4096)
            writer.add(make_fps(1, start=i * 10)[0], data=b"x" * 100)
            ids.append(mgr.store(writer).container_id)
        assert ids == [0, 1, 2]
        assert mgr.containers_written == 3
        assert mgr.bytes_written == 3 * 4096

    def test_fetch_counts(self):
        repo = ChunkRepository()
        mgr = ContainerManager(repo)
        writer = ContainerWriter(capacity=4096)
        fp = make_fps(1)[0]
        writer.add(fp, data=b"q" * 10)
        cid = mgr.store(writer).container_id
        fetched = mgr.fetch(cid)
        assert fetched.get(fp) == b"q" * 10
        assert mgr.containers_read == 1


class TestDefaultPayload:
    def test_deterministic_and_sized(self):
        fp = make_fps(1)[0]
        assert default_payload(fp, 100) == default_payload(fp, 100)
        assert len(default_payload(fp, 12345)) == 12345

    def test_distinct_per_fingerprint(self):
        a, b = make_fps(2)
        assert default_payload(a, 64) != default_payload(b, 64)

    def test_zero_size(self):
        assert default_payload(make_fps(1)[0], 0) == b""
