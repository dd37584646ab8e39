"""Containers: the unit of storage in the chunk repository (Section 3.4).

A container is fixed-size (8 MB by default, holding ~1024 chunks of the 8 KB
expected size) and *self-described*: a metadata section located before the
data section records, for every chunk, its fingerprint, size and offset, so
a corrupted index can be rebuilt by scanning containers alone.

Containers are filled with the stream-informed segment layout (SISL) adopted
from DDFS: new chunks are appended in the logical order they appear in the
backup stream, which gives the spatial locality that makes the LPC read
cache effective during restores.

Payloads may be *virtualized*: the evaluation workloads (like the paper's
own Section 6.2 experiments) carry synthetic chunks whose content is
irrelevant, so containers can record metadata only and regenerate payload
bytes deterministically from the fingerprint on read.  All bookkeeping
(offsets, capacities, IDs, locality) is identical in both modes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.repository import ChunkRepository

from repro.core.fingerprint import FINGERPRINT_SIZE, Fingerprint
from repro.durability.crc import crc32c
from repro.durability.errors import CorruptionError, TornWriteError
from repro.durability.framing import (
    KIND_CONTAINER,
    Superblock,
    superblock_size,
    unpack_superblock,
)
from repro.telemetry.registry import MetricsRegistry, get_registry

#: Default container size (the paper's 8 MB).
CONTAINER_SIZE = 8 * 1024 * 1024

#: Framed per-chunk record: fingerprint, size, offset, payload CRC32C.
_FRAMED_RECORD = struct.Struct(f"<{FINGERPRINT_SIZE}sIII")

#: Framed superblock payload: container ID, record count, metadata-section CRC.
_SB_PAYLOAD = struct.Struct("<QII")

#: Fixed on-disk bytes before the record array in a framed image.
FRAMED_META_FIXED = superblock_size(_SB_PAYLOAD.size)


def default_payload(fp: Fingerprint, size: int) -> bytes:
    """Deterministic stand-in payload for virtualized chunks.

    Repeats the fingerprint to ``size`` bytes, so restored virtual chunks are
    reproducible and distinct per fingerprint (good enough to catch routing
    bugs in round-trip tests).
    """
    reps = size // FINGERPRINT_SIZE + 1
    return (fp * reps)[:size]


@dataclass(frozen=True)
class ChunkRecord:
    """One chunk's metadata inside a container.

    ``crc`` is the CRC32C of the chunk payload, taken once when the bytes
    first became durable (the chunk-log append) and carried from there:
    log record, this record, the on-disk container record, and any later
    copy-forward.  Only records built without one — the simulated systems'
    in-memory log, a payload the scrubber has just SHA-1-verified and
    rewritten — are ``None``, and :meth:`Container.serialize` checksums
    those.  It never takes part in equality so sealed and reloaded
    containers still compare.
    """

    fingerprint: Fingerprint
    size: int
    offset: int
    crc: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class PayloadFault:
    """One damaged chunk payload found by :meth:`Container.verify_payloads`."""

    fingerprint: Fingerprint
    file_offset: int  #: byte offset of the payload inside the container image
    reason: str


class MetaPrefixShort(Exception):
    """:meth:`Container.parse_meta` needs more leading bytes.

    ``needed`` is the prefix length that will satisfy the parse — the
    caller issues one more range read of exactly that much and retries.
    """

    def __init__(self, needed: int) -> None:
        super().__init__(f"metadata section needs {needed} leading bytes")
        self.needed = needed


def verify_records(
    records: List[ChunkRecord],
    read_at: Callable[[int, int], bytes],
    base_offset: int = 0,
) -> List[PayloadFault]:
    """Check chunk payloads against their stored checksums via a reader.

    ``read_at(offset, size)`` returns payload bytes at a data-section
    offset — a slice of an in-memory image, a :class:`SegmentBuffer` over
    a few coalesced range GETs, or a raw backend ``get_range``.  This is
    what lets deep verify of a *cold* container check exactly the suspect
    records instead of downloading the whole image.  Records carrying a
    CRC verify via CRC32C; one built without (see :class:`ChunkRecord`)
    re-hashes against its fingerprint.
    """
    faults: List[PayloadFault] = []
    for rec in records:
        where = base_offset + rec.offset
        try:
            chunk = read_at(rec.offset, rec.size)
        except KeyError:
            faults.append(PayloadFault(rec.fingerprint, where, "payload unreadable"))
            continue
        if len(chunk) < rec.size:
            faults.append(PayloadFault(rec.fingerprint, where, "payload cut short"))
        elif rec.crc is not None:
            if crc32c(chunk) != rec.crc:
                faults.append(
                    PayloadFault(rec.fingerprint, where, "payload CRC mismatch")
                )
        elif hashlib.sha1(chunk).digest() != rec.fingerprint:
            faults.append(
                PayloadFault(rec.fingerprint, where, "payload digest mismatch")
            )
    return faults


@dataclass
class Container:
    """A sealed, self-described container.

    ``data`` is ``None`` for metadata-only (virtualized) containers.
    """

    container_id: int
    records: List[ChunkRecord]
    data: Optional[bytes] = None
    capacity: int = CONTAINER_SIZE
    _by_fp: Dict[Fingerprint, ChunkRecord] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._by_fp:
            self._by_fp = {r.fingerprint: r for r in self.records}

    @property
    def fingerprints(self) -> List[Fingerprint]:
        """Chunk fingerprints in stream (SISL) order."""
        return [r.fingerprint for r in self.records]

    @property
    def data_bytes(self) -> int:
        """Total payload bytes described by the metadata section."""
        return sum(r.size for r in self.records)

    @property
    def metadata_bytes(self) -> int:
        """On-disk size of the metadata section (superblock + record array)."""
        return FRAMED_META_FIXED + len(self.records) * _FRAMED_RECORD.size

    @property
    def data_start(self) -> int:
        """Byte offset of the data section inside the on-disk image."""
        return self.metadata_bytes

    def __contains__(self, fp: Fingerprint) -> bool:
        return fp in self._by_fp

    def record_for(self, fp: Fingerprint) -> ChunkRecord:
        try:
            return self._by_fp[fp]
        except KeyError:
            raise KeyError(f"fingerprint {fp.hex()[:12]} not in container {self.container_id}")

    def get(
        self,
        fp: Fingerprint,
        payload: Callable[[Fingerprint, int], bytes] = default_payload,
    ) -> bytes:
        """Read one chunk's payload (regenerated via ``payload`` if virtual)."""
        rec = self.record_for(fp)
        if self.data is not None:
            return self.data[rec.offset : rec.offset + rec.size]
        return payload(fp, rec.size)

    # -- serialisation -------------------------------------------------------
    def serialize(self) -> bytes:
        """Full self-described on-disk image in the framed format.

        Layout: superblock (kind ``CTR``, generation = container ID,
        payload = ID + record count + metadata CRC), then one framed
        record per chunk carrying its payload CRC32C, then the data
        section, zero-padded to the fixed capacity.  A record's carried
        CRC is written as is — never recomputed from ``data``.
        """
        if self.data is None:
            raise ValueError("cannot serialise a metadata-only container")
        recs = []
        for r in self.records:
            crc = r.crc
            if crc is None:
                crc = crc32c(self.data[r.offset : r.offset + r.size])
            recs.append(_FRAMED_RECORD.pack(r.fingerprint, r.size, r.offset, crc))
        meta = b"".join(recs)
        sb = Superblock(
            KIND_CONTAINER,
            self.container_id,
            _SB_PAYLOAD.pack(self.container_id, len(recs), crc32c(meta)),
        )
        blob = sb.pack() + meta + self.data
        if len(blob) > self.capacity:
            raise ValueError("container image exceeds its fixed size")
        return blob + b"\x00" * (self.capacity - len(blob))

    @classmethod
    def deserialize(cls, container_id: int, blob: bytes, capacity: int = CONTAINER_SIZE) -> "Container":
        """Parse a serialized container image.

        The superblock and metadata section are verified here (cheap — a
        few bytes per record); payload CRCs are checked lazily by
        scrub/audit via :meth:`verify_payloads`.  An image that does not
        start with a superblock is corrupt (:class:`CorruptionError`).
        """
        try:
            records, data_start = cls.parse_meta(container_id, blob)
        except MetaPrefixShort:
            raise TornWriteError(
                f"container {container_id}: metadata section cut short",
                artifact=f"container {container_id}", container_id=container_id,
                offset=FRAMED_META_FIXED,
            ) from None
        data_len = max((r.offset + r.size for r in records), default=0)
        data = blob[data_start : data_start + data_len]
        return cls(container_id, records, data, capacity)

    @classmethod
    def parse_meta(
        cls, container_id: int, prefix: bytes
    ) -> Tuple[List[ChunkRecord], int]:
        """Parse ``(records, data_start)`` from a leading image slice.

        The cold tier fetches container metadata with a bounded range read
        instead of the whole image; when the supplied prefix is too short
        for the record array, :class:`MetaPrefixShort` names the exact
        prefix length a retry needs.  The superblock and the metadata CRC
        are verified here; a prefix without the superblock magic raises
        :class:`CorruptionError` like any other superblock damage.
        """
        artifact = f"container {container_id}"
        if len(prefix) < FRAMED_META_FIXED:
            raise MetaPrefixShort(FRAMED_META_FIXED)
        sb, off = unpack_superblock(prefix, artifact=artifact)
        if sb.kind != KIND_CONTAINER:
            raise CorruptionError(
                f"{artifact}: superblock kind {sb.kind!r} is not a container",
                artifact=artifact, container_id=container_id,
            )
        stored_id, count, meta_crc = _SB_PAYLOAD.unpack(sb.payload)
        if stored_id != container_id:
            raise CorruptionError(
                f"{artifact}: image claims to be container {stored_id}",
                artifact=artifact, container_id=container_id,
            )
        needed = off + count * _FRAMED_RECORD.size
        if len(prefix) < needed:
            raise MetaPrefixShort(needed)
        meta = prefix[off:needed]
        if crc32c(meta) != meta_crc:
            raise CorruptionError(
                f"{artifact}: metadata section CRC mismatch",
                artifact=artifact, container_id=container_id, offset=off,
            )
        records = [
            ChunkRecord(*_FRAMED_RECORD.unpack_from(meta, i * _FRAMED_RECORD.size))
            for i in range(count)
        ]
        return records, needed

    def verify_payloads(
        self, records: Optional[List[ChunkRecord]] = None
    ) -> List[PayloadFault]:
        """Check chunk payloads against their stored checksums.

        ``records`` narrows the check to a suspect subset (default: all).
        Virtual (metadata-only) containers have nothing to verify.  The
        actual checking is :func:`verify_records`, shared with the cold
        tier's ranged verify so an in-memory image and a range-read sweep
        cannot diverge.
        """
        if self.data is None:
            return []
        data = self.data
        return verify_records(
            self.records if records is None else records,
            lambda offset, size: data[offset : offset + size],
            base_offset=self.data_start,
        )


class ContainerWriter:
    """An open in-memory container being filled in SISL order.

    Chunks are accepted until the combined metadata + data sections would
    exceed the fixed container size; the Chunk Store then seals it, submits
    it to the Container Manager and opens a fresh one (Section 5.3).
    """

    def __init__(self, capacity: int = CONTAINER_SIZE, materialize: bool = True) -> None:
        if capacity <= FRAMED_META_FIXED + _FRAMED_RECORD.size:
            raise ValueError("container capacity too small for a single chunk record")
        self.capacity = capacity
        self.materialize = materialize
        self._records: List[ChunkRecord] = []
        self._data = bytearray() if materialize else None
        self._data_size = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def used_bytes(self) -> int:
        """Bytes of the fixed container already committed (framed format)."""
        meta = FRAMED_META_FIXED + len(self._records) * _FRAMED_RECORD.size
        return meta + self._data_size

    def fits(self, chunk_size: int) -> bool:
        """Would a chunk of ``chunk_size`` bytes fit?"""
        return self.used_bytes + _FRAMED_RECORD.size + chunk_size <= self.capacity

    def add(
        self,
        fp: Fingerprint,
        data: Optional[bytes] = None,
        size: Optional[int] = None,
        crc: Optional[int] = None,
    ) -> bool:
        """Append one chunk; return False (and change nothing) if it won't fit.

        Pass ``data`` for real chunks, or ``size`` alone for virtual ones;
        ``crc`` is the payload CRC32C the chunk already carries, if any.
        """
        if data is not None:
            size = len(data)
        elif size is None:
            raise ValueError("either data or size is required")
        if size < 0:
            raise ValueError("chunk size must be non-negative")
        if not self.fits(size):
            return False
        self._records.append(ChunkRecord(fp, size, self._data_size, crc))
        if self._data is not None:
            if data is None:
                raise ValueError("materialized writer requires chunk data")
            self._data.extend(data)
        self._data_size += size
        return True

    def seal(self, container_id: int) -> Container:
        """Freeze into an immutable :class:`Container` with its assigned ID."""
        data = bytes(self._data) if self._data is not None else None
        return Container(container_id, list(self._records), data, self.capacity)


class ContainerManager:
    """Writes/reads containers to/from the chunk repository (Section 3.3).

    Thin stateful façade: it allocates nothing itself but tracks I/O volume
    counters the server layer converts into simulated time.
    """

    def __init__(self, repository: "ChunkRepository",
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.repository = repository
        self.containers_written = 0
        self.containers_read = 0
        self.bytes_written = 0
        self.bytes_read = 0
        registry = registry if registry is not None else get_registry()
        self._t_sealed = registry.counter(
            "container.sealed", "containers sealed and appended to the repository"
        ).labels()
        self._t_chunks = registry.counter(
            "container.chunks_packed", "chunks packed into sealed containers"
        ).labels()
        self._t_bytes_written = registry.counter(
            "container.bytes_written", "container capacity bytes appended"
        ).labels()
        self._t_fetched = registry.counter(
            "container.fetched", "containers read back from the repository"
        ).labels()
        self._t_bytes_read = registry.counter(
            "container.bytes_read", "container capacity bytes read back"
        ).labels()
        self._t_fill = registry.histogram(
            "container.fill_fraction", "payload fill fraction of sealed containers",
            buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0),
        ).labels()

    def store(self, writer: ContainerWriter, affinity: Optional[int] = None) -> Container:
        """Seal an open container, append it to the repository, return it."""
        container_id = self.repository.allocate_id()
        container = writer.seal(container_id)
        self.repository.store(container, affinity=affinity)
        self.containers_written += 1
        self.bytes_written += container.capacity
        self._t_sealed.inc()
        self._t_chunks.inc(len(container.records))
        self._t_bytes_written.inc(container.capacity)
        self._t_fill.observe(writer.used_bytes / container.capacity)
        return container

    def fetch(self, container_id: int) -> Container:
        """Read a container back from the repository."""
        container = self.repository.fetch(container_id)
        self.containers_read += 1
        self.bytes_read += container.capacity
        self._t_fetched.inc()
        self._t_bytes_read.inc(container.capacity)
        return container
