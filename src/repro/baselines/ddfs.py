"""A DDFS-style inline de-duplication server (ZHU08), per Section 6's
reimplementation.

The pipeline for each incoming chunk:

1. **LPC** — if the fingerprint is in the locality-preserved cache it is a
   duplicate, resolved with no I/O at all.
2. **Summary vector** — a Bloom-filter miss proves the chunk is new, with no
   I/O; a hit forces
3. **a random disk-index lookup** — if found, the owning container's whole
   fingerprint group is prefetched into the LPC (one more random read) and
   the chunk is a duplicate; if not found, the Bloom hit was a false
   positive and the chunk is new.

New chunks stream into SISL containers; their fingerprints enter the Bloom
filter immediately and queue in an in-memory **write buffer**.  When the
buffer fills, the server *pauses the backup* and flushes the buffer to the
disk index with a sequential merge (the SIU algorithm) — the inline
throughput dips Figure 9 shows.  Because fingerprints in the buffer are not
yet in the index, a recurrence that misses the LPC is stored twice: the
duplicated storing under asynchronous updates that DEBAR's checking file
eliminates (Section 5.4).

Every logical byte crosses the network (de-duplication is entirely
server-side), so DDFS throughput is capped by the NIC — the paper's
measured 210 MB/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.baselines.bloom import BloomFilter
from repro.core.disk_index import DiskIndex, IndexFullError
from repro.core.fingerprint import FINGERPRINT_SIZE, Fingerprint
from repro.core.siu import SequentialIndexUpdate
from repro.core.tpds import StreamChunk
from repro.simdisk import Meter, PaperRig, SimClock, paper_rig
from repro.storage.container import CONTAINER_SIZE, ContainerManager, ContainerWriter
from repro.storage.lpc import LocalityPreservedCache
from repro.storage.repository import ChunkRepository


@dataclass
class DdfsBackupStats:
    """Outcome of one DDFS backup session."""

    logical_bytes: int = 0
    logical_chunks: int = 0
    duplicate_chunks: int = 0
    new_chunks: int = 0
    new_bytes: int = 0
    duplicate_stores: int = 0  # chunks stored again due to async updates
    lpc_hits: int = 0
    bloom_negatives: int = 0
    index_lookups: int = 0
    false_positives: int = 0
    buffer_flushes: int = 0
    containers_written: int = 0
    elapsed: float = 0.0

    @property
    def compression_ratio(self) -> float:
        return self.logical_bytes / self.new_bytes if self.new_bytes else float("inf")

    @property
    def throughput(self) -> float:
        return self.logical_bytes / self.elapsed if self.elapsed else float("inf")


class DdfsServer:
    """A single-server DDFS with summary vector, LPC and write buffer.

    Parameters
    ----------
    index:
        The on-disk fingerprint index.
    repository:
        Container storage.
    bloom_bits / bloom_hashes:
        Summary-vector geometry (paper: 1 GB = 2^33 bits, k = 4).
    lpc_containers:
        LPC capacity in container fingerprint groups (paper: 128 MB).
    write_buffer_capacity:
        Fingerprints buffered before a pause-and-flush (paper: 256 MB).
    """

    def __init__(
        self,
        index: DiskIndex,
        repository: ChunkRepository,
        *,
        bloom_bits: int = 1 << 23,
        bloom_hashes: int = 4,
        lpc_containers: int = 16,
        write_buffer_capacity: int = 1 << 16,
        container_bytes: int = CONTAINER_SIZE,
        materialize: bool = False,
        rig: Optional[PaperRig] = None,
        clock: Optional[SimClock] = None,
    ) -> None:
        if write_buffer_capacity < 1:
            raise ValueError("write buffer must hold at least one fingerprint")
        self.index = index
        self.repository = repository
        self.bloom = BloomFilter(bloom_bits, bloom_hashes)
        self.lpc = LocalityPreservedCache(lpc_containers)
        self.write_buffer_capacity = write_buffer_capacity
        self.container_bytes = container_bytes
        self.materialize = materialize
        self.rig = rig if rig is not None else paper_rig()
        self.clock = clock if clock is not None else SimClock()
        self.meter = Meter(self.clock)
        self.container_manager = ContainerManager(repository)
        self._write_buffer: Dict[Fingerprint, int] = {}
        self._writer = ContainerWriter(container_bytes, materialize=materialize)
        self._open_fps: List[Fingerprint] = []
        self.capacity_scalings = 0
        self._flushes_this_session = 0

    # ------------------------------------------------------------------ backup
    def backup_stream(self, stream: Iterable[StreamChunk]) -> DdfsBackupStats:
        """Inline-deduplicate one backup stream."""
        t0 = self.clock.now
        stats = DdfsBackupStats()
        random_probes = 0
        prefetch_reads = 0

        for element in stream:
            fp, size = element[0], element[1]
            data = element[2] if len(element) > 2 else None
            stats.logical_chunks += 1
            stats.logical_bytes += size

            if self.lpc.lookup(fp) is not None:
                stats.lpc_hits += 1
                stats.duplicate_chunks += 1
                continue
            if fp not in self.bloom:
                stats.bloom_negatives += 1
                self._store_new(fp, size, data, stats)
                continue
            # Bloom positive: confirm with a random on-disk lookup.
            cid, probes = self.index.lookup_with_probes(fp)
            stats.index_lookups += 1
            random_probes += probes
            if cid is not None:
                self.lpc.insert_container(self.container_manager.fetch(cid))
                prefetch_reads += 1
                stats.duplicate_chunks += 1
            else:
                stats.false_positives += 1
                if fp in self._write_buffer or any(
                    rec == fp for rec in self._open_fps
                ):
                    # Asynchronous-update window: already stored, index not
                    # yet flushed.  DDFS cannot tell and stores it again.
                    stats.duplicate_stores += 1
                self._store_new(fp, size, data, stats)
                continue

        # Charge the session: every logical byte over the NIC, container
        # appends overlapped with receiving, random index I/O on top.
        net = self.rig.network.transfer_time(
            stats.logical_bytes + stats.logical_chunks * FINGERPRINT_SIZE
        )
        container_write = self.rig.repository_disk.append_write_time(
            stats.containers_written * self.container_bytes
        )
        self.meter.charge("ddfs.pipeline", max(net, container_write))
        self.meter.record("ddfs.network", net)
        self.meter.charge(
            "ddfs.index_random",
            self.rig.index_disk.random_read_time(random_probes + prefetch_reads),
        )
        self.meter.charge("ddfs.cpu", self.rig.cpu.filter_probe_time(stats.logical_chunks))

        # Flushes triggered during the stream already charged themselves.
        stats.buffer_flushes = self._flushes_this_session
        self._flushes_this_session = 0
        stats.elapsed = self.clock.now - t0
        return stats

    def _store_new(self, fp: Fingerprint, size: int, data: Optional[bytes], stats: DdfsBackupStats) -> None:
        if not self._writer.fits(size):
            self._seal_container(stats)
        if not self._writer.add(fp, data=data, size=size):
            raise ValueError(f"chunk of {size} bytes cannot fit an empty container")
        self._open_fps.append(fp)
        self.bloom.add(fp)
        stats.new_chunks += 1
        stats.new_bytes += size

    def _seal_container(self, stats: Optional[DdfsBackupStats]) -> None:
        if not len(self._writer):
            return
        container = self.container_manager.store(self._writer)
        for fp in self._open_fps:
            self._buffer_update(fp, container.container_id)
        # DDFS inserts a freshly written container's fingerprint group into
        # the cache (stream-informed layout makes its neighbours likely to
        # recur), which is what catches within-stream duplicates inline.
        self.lpc.insert_container(container)
        self._open_fps.clear()
        self._writer = ContainerWriter(self.container_bytes, materialize=self.materialize)
        if stats is not None:
            stats.containers_written += 1

    def _buffer_update(self, fp: Fingerprint, cid: int) -> None:
        self._write_buffer[fp] = cid
        if len(self._write_buffer) >= self.write_buffer_capacity:
            self.flush_write_buffer()

    def flush_write_buffer(self) -> None:
        """Pause and merge the write buffer into the disk index (SIU-style)."""
        if not self._write_buffer:
            return
        entries = dict(self._write_buffer)
        while True:
            try:
                SequentialIndexUpdate(self.index).run(
                    entries,
                    meter=self.meter,
                    disk=self.rig.index_disk,
                    cpu=self.rig.cpu,
                    category="ddfs.siu",
                )
                break
            except IndexFullError:
                # DDFS has no cheap capacity scaling; rebuilding in place is
                # modeled the same way as DEBAR's for comparability.
                self.index = self.index.scale_capacity()
                self.capacity_scalings += 1
                entries = {
                    fp: cid for fp, cid in entries.items() if self.index.lookup(fp) is None
                }
        self._write_buffer.clear()
        self._flushes_this_session += 1

    def finish_backup(self) -> None:
        """Seal the open container and flush the buffer (end of a session)."""
        if len(self._writer):
            self.meter.charge(
                "ddfs.container_tail",
                self.rig.repository_disk.append_write_time(self.container_bytes),
            )
        self._seal_container(None)
        self.flush_write_buffer()

    # ------------------------------------------------------------------ restore
    def read_chunk(self, fp: Fingerprint) -> bytes:
        """Restore-path chunk read via LPC (Section 3.3's retrieval flow)."""
        container = self.lpc.lookup(fp)
        if container is None:
            cid, probes = self.index.lookup_with_probes(fp)
            if cid is None:
                raise KeyError(f"fingerprint {fp.hex()[:12]} not stored")
            self.meter.charge(
                "restore.index_random", self.rig.index_disk.random_read_time(probes)
            )
            container = self.container_manager.fetch(cid)
            self.lpc.insert_container(container)
            self.meter.charge(
                "restore.container_read",
                self.rig.repository_disk.seq_read_time(container.capacity),
            )
        return container.get(fp)
