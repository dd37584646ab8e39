"""A two-tier chunk repository: hot container files + a cold object store.

:class:`TieredChunkRepository` extends the on-disk
:class:`~repro.storage.file_repository.FileChunkRepository` with an
optional **cold tier** — any :class:`~repro.backend.base.StorageBackend`
holding sealed container images as immutable objects (one object per
container, same ``{id:012x}.ctr`` naming as the hot directory).

Tier membership is **derived, never persisted**: a container is *hot* if
its file exists (hot always wins), else *cold* if its object exists.
Migration therefore has no metadata transaction — put the object, verify
it, unlink the file — and a crash between those steps just leaves both
copies, which the next (idempotent) migration pass finishes.

Cold reads are ranged: the metadata section comes from a bounded prefix
GET (parsed by :meth:`Container.parse_meta`, cached in the repository's
:class:`~repro.backend.cache.LruMetaCache`), payloads from byte-range GETs —
``fetch`` pulls only the data section, never the zero padding, and
:meth:`verify_cold_payloads` scrubs a container with coalesced multi-range
GETs instead of downloading the image.  No container is held in memory
here: the bounded metadata cache holds only cold metadata sections, and
the read cache of whole containers is the chunk store's LPC.

Every hot-tier operation — the image write path and whole-image reads
included — is the parent's; this class adds only the cold branches.  With
no cold backend attached it is behaviourally identical to its parent — the
vault constructs it unconditionally at zero cost.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.backend.base import ObjectMissingError, StorageBackend
from repro.backend.cache import LruMetaCache
from repro.durability.errors import TornWriteError
from repro.durability.fsshim import LocalFs
from repro.storage.container import (
    CONTAINER_SIZE,
    ChunkRecord,
    Container,
    PayloadFault,
    verify_records,
)
from repro.storage.file_repository import FileChunkRepository
from repro.telemetry.registry import MetricsRegistry
from repro.util.ranges import RANGE_GAP, SegmentBuffer, Span, coalesce

PathLike = Union[str, Path]

TIER_HOT = "hot"
TIER_COLD = "cold"


class TieredChunkRepository(FileChunkRepository):
    """A container log whose sealed containers may live on a cold backend."""

    def __init__(
        self,
        root: PathLike,
        container_bytes: int = CONTAINER_SIZE,
        create: bool = True,
        fs: Optional[LocalFs] = None,
        on_retry: Optional[Callable[[], None]] = None,
        cold: Optional[StorageBackend] = None,
        meta_cache: Optional[LruMetaCache] = None,
    ) -> None:
        super().__init__(
            root, container_bytes=container_bytes, create=create, fs=fs,
            on_retry=on_retry,
        )
        self.cold: Optional[StorageBackend] = None
        # A private registry until a cold tier is attached with the vault's
        # own cache: a hot-only repository exports no cache metrics.
        self.meta_cache = (
            meta_cache if meta_cache is not None
            else LruMetaCache(registry=MetricsRegistry())
        )
        self._cold_ids: set = set()
        if cold is not None:
            self.attach_cold(cold)

    # -- cold-tier plumbing ---------------------------------------------------
    def attach_cold(
        self, backend: StorageBackend, meta_cache: Optional[LruMetaCache] = None
    ) -> None:
        """Wire a cold backend in (idempotent; rescans cold membership)."""
        self.cold = backend
        if meta_cache is not None:
            self.meta_cache = meta_cache
        self._cold_ids = {
            int(key[: -len(".ctr")], 16)
            for key in backend.list_keys()
            if key.endswith(".ctr")
        }
        if self._cold_ids:
            # Never re-issue an ID a migrated container already owns.
            self._next_id = max(self._next_id, max(self._cold_ids) + 1)

    @staticmethod
    def cold_key(container_id: int) -> str:
        return f"{container_id:012x}.ctr"

    def _hot(self, container_id: int) -> bool:
        return self.fs.exists(self.path_for(container_id))

    def _cold_object(self, container_id: int) -> str:
        """The cold key of a container the cold tier holds (else KeyError)."""
        if self.cold is None or container_id not in self._cold_ids:
            raise KeyError(f"container {container_id} not in repository")
        return self.cold_key(container_id)

    def tier_of(self, container_id: int) -> str:
        """``"hot"`` or ``"cold"`` (hot wins when both copies exist)."""
        if self._hot(container_id):
            return TIER_HOT
        self._cold_object(container_id)  # KeyError when neither tier holds it
        return TIER_COLD

    # -- membership overrides -------------------------------------------------
    def __contains__(self, container_id: int) -> bool:
        return container_id in self._cold_ids or super().__contains__(container_id)

    def __len__(self) -> int:
        return len(self._ids | self._cold_ids)

    def container_ids(self) -> list:
        return sorted(self._ids | self._cold_ids)

    # -- cold metadata --------------------------------------------------------
    def fetch_meta(
        self, container_id: int
    ) -> Tuple[List[ChunkRecord], int]:
        """``(records, data_start)`` for a container on either tier.

        Hot containers parse from a prefix of the file; cold containers from
        a bounded prefix GET through the metadata cache — at most two range
        requests, and usually zero once the cache is warm.
        """
        if self._hot(container_id):
            return super().fetch_meta(container_id)
        meta = self.meta_cache.get(container_id)
        if meta is not None:
            return meta
        parsed = self._parse_cold_meta(container_id)
        self.meta_cache.put(container_id, parsed)
        return parsed

    def _parse_cold_meta(
        self, container_id: int
    ) -> Tuple[List[ChunkRecord], int]:
        """Parse a cold object's metadata section from ranged reads,
        bypassing the hot file and every cache — the read that proves the
        *object* is intact."""
        key = self._cold_object(container_id)
        return Container.read_meta(
            container_id, lambda offset, n: self.cold.get_range(key, offset, n)
        )

    # -- ranged reads ---------------------------------------------------------
    def read_ranges(
        self, container_id: int, ranges: List[Tuple[int, int]]
    ) -> List[bytes]:
        """Several byte ranges of one container — a single backend request
        on a batching backend (the cold read planner's workhorse)."""
        if self._hot(container_id):
            out = []
            with self._open(container_id) as fh:
                for offset, length in ranges:
                    out.append(self.fs.pread(fh, offset, length))
            return out
        return self.cold.get_ranges(self._cold_object(container_id), ranges)

    # -- whole-image access (replication, CONTAINER_FETCH, scrub repair) ------
    def read_image(self, container_id: int) -> bytes:
        """The full serialized image, byte-identical on either tier."""
        if self._hot(container_id):
            return super().read_image(container_id)
        return self.cold.get(self._cold_object(container_id))

    def write_image(self, container_id: int, blob: bytes) -> None:
        """Overwrite a container image in place on whichever tier holds it
        (repair path).  The cold metadata cache is invalidated; a container
        neither tier holds lands hot (the rebuild-from-sources case)."""
        if container_id in self._cold_ids and not self._hot(container_id):
            self.cold.put(self.cold_key(container_id), blob)
        else:
            super().write_image(container_id, blob)
        self.meta_cache.invalidate(container_id)

    def quarantine(self, container_id: int) -> str:
        """Move a damaged image aside (``…​.ctr.quarantine``) for forensics.

        Returns where the damaged bytes went.  Cold membership is kept so
        a follow-up :meth:`write_image` heals onto the same tier; until it
        does, fetches raise ``KeyError`` like any missing container.
        """
        path = self.path_for(container_id)
        if self.fs.exists(path):
            qpath = path.with_suffix(path.suffix + ".quarantine")
            self.fs.replace(path, qpath)
            self.meta_cache.invalidate(container_id)
            return str(qpath)
        if self.cold is not None and container_id in self._cold_ids:
            key = self.cold_key(container_id)
            qkey = key + ".quarantine"
            self.cold.put(qkey, self.cold.get(key))
            self.cold.delete(key)
            self.meta_cache.invalidate(container_id)
            return qkey
        raise KeyError(f"container {container_id} not in repository")

    # -- fetch / remove across tiers ------------------------------------------
    def fetch(self, container_id: int) -> Container:
        if self._hot(container_id):
            return super().fetch(container_id)
        key = self._cold_object(container_id)
        records, data_start = self.fetch_meta(container_id)
        return Container.read(
            container_id, lambda offset, n: self.cold.get_range(key, offset, n),
            records, data_start, self.container_bytes,
        )

    def remove(self, container_id: int) -> None:
        removed = False
        if self._hot(container_id):
            super().remove(container_id)
            removed = True
        if self.cold is not None and container_id in self._cold_ids:
            try:
                self.cold.delete(self.cold_key(container_id))
            except ObjectMissingError:
                pass
            self._cold_ids.discard(container_id)
            removed = True
        self.meta_cache.invalidate(container_id)
        if not removed:
            raise KeyError(f"container {container_id} not in repository")

    # -- migration ------------------------------------------------------------
    def migrate_to_cold(self, container_id: int) -> int:
        """Move one sealed container hot → cold; returns bytes migrated.

        Put, verify (object size + metadata CRC through a ranged read),
        *then* unlink — the hot copy only disappears once the cold copy
        has proven readable.  Already-cold containers are a no-op.
        """
        if self.cold is None:
            raise RuntimeError("no cold backend attached")
        path = self.path_for(container_id)
        if not self.fs.exists(path):
            if container_id in self._cold_ids:
                return 0
            raise KeyError(f"container {container_id} not in repository")
        blob = self.fs.read_file(path)
        key = self.cold_key(container_id)
        self.cold.put(key, blob)
        if self.cold.stat(key).size != len(blob):
            raise TornWriteError(
                f"container {container_id}: cold object size mismatch after put",
                artifact="container", container_id=container_id,
            )
        # Verify the *uploaded object's* metadata section round-trips (CRC
        # checked in parse — the hot file still exists here, so this must
        # not go through fetch_meta, which would read the hot copy) before
        # the hot copy is allowed to disappear.
        self._cold_ids.add(container_id)
        self.meta_cache.invalidate(container_id)
        try:
            parsed = self._parse_cold_meta(container_id)
        except Exception:
            self._cold_ids.discard(container_id)
            raise
        self.meta_cache.put(container_id, parsed)
        self.fs.unlink(path)
        self._ids.discard(container_id)
        return len(blob)

    # -- ranged scrub ---------------------------------------------------------
    def verify_cold_payloads(
        self, container_id: int
    ) -> Tuple[List[PayloadFault], int]:
        """Deep-verify a cold container from byte-range reads.

        The metadata section is parsed from the object itself, not the
        metadata cache (which it refreshes), so rot there is caught too.
        Adjacent payload ranges coalesce into one multi-range GET; the
        whole image is never downloaded (padding in particular).  Returns
        ``(faults, payload_bytes_read)`` — the same faults
        :meth:`Container.verify_payloads` would report on the full image.
        """
        records, data_start = parsed = self._parse_cold_meta(container_id)
        self.meta_cache.put(container_id, parsed)
        spans = [
            Span(data_start + r.offset, r.size, r) for r in records if r.size
        ]
        buf = SegmentBuffer()
        groups = coalesce(spans, max_gap=RANGE_GAP)
        if groups:
            blobs = self.read_ranges(
                container_id, [(g.start, g.length) for g in groups]
            )
            for group, blob in zip(groups, blobs):
                buf.add(group.start, memoryview(blob))
        faults = verify_records(
            records,
            lambda offset, size: buf.read(data_start + offset, size),
            base_offset=data_start,
        )
        return faults, buf.fetched_bytes

    # -- reporting ------------------------------------------------------------
    def tier_report(self) -> Dict[str, Dict[str, int]]:
        """Per-tier container counts and stored bytes (``tier-status``)."""
        hot_ids = [cid for cid in self._ids if self._hot(cid)]
        hot_bytes = sum(self.fs.file_size(self.path_for(cid)) for cid in hot_ids)
        cold_only = sorted(self._cold_ids - set(hot_ids))
        cold_bytes = 0
        if self.cold is not None:
            for cid in cold_only:
                try:
                    cold_bytes += self.cold.stat(self.cold_key(cid)).size
                except ObjectMissingError:
                    pass
        report = {
            TIER_HOT: {"containers": len(hot_ids), "bytes": hot_bytes},
            TIER_COLD: {"containers": len(cold_only), "bytes": cold_bytes},
        }
        if self.cold is not None:
            report["meta_cache"] = self.meta_cache.status()
        return report
