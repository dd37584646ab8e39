"""A DEBAR backup server: TPDS engine + File Store + Chunk Store (Section 3.3).

This is the one engine under every facade: a
:class:`~repro.system.vault.DebarVault` runs one over file-backed parts,
a :class:`~repro.system.debar.DebarSystem` one over simulated parts, and a
:class:`~repro.system.cluster.DebarCluster` one per index part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.checking import CheckingFile
from repro.core.disk_index import DiskIndex
from repro.core.tpds import Dedup1Stats, StreamChunk, TwoPhaseDeduplicator
from repro.director.metadata import FileIndexEntry, FileMetadata
from repro.server.chunk_store import ChunkStore
from repro.simdisk import ClockLane, PaperRig, paper_rig
from repro.storage.chunk_log import ChunkLog
from repro.storage.container import CONTAINER_SIZE
from repro.storage.repository import ChunkRepository
from repro.telemetry.registry import MetricsRegistry


@dataclass
class BackupServerConfig:
    """Sizing knobs for one backup server.

    Defaults are scaled-down analogues of the paper's configuration (1 GB
    preliminary filter, 1 GB index cache, 8 MB containers, 128 MB LPC).
    """

    index_n_bits: int = 16
    index_bucket_bytes: int = 8 * 1024
    filter_capacity: int = 1 << 16
    cache_capacity: int = 1 << 20
    container_bytes: int = CONTAINER_SIZE
    lpc_containers: int = 16
    siu_every: int = 1
    materialize: bool = False


def stream_file(
    path: str, stream: Iterable[StreamChunk]
) -> Tuple[FileMetadata, List[StreamChunk]]:
    """A workload-model fingerprint stream as one file for
    :meth:`BackupServer.backup`, sized by the chunks it holds."""
    elements = list(stream)
    return FileMetadata(path, sum(e[1] for e in elements)), elements


class BackupServer:
    """One backup server of a DEBAR deployment.

    In a single-server system it owns the whole disk index; in a cluster of
    ``2^w`` servers it owns index part ``server_id`` (fingerprints whose
    first ``w`` bits equal its number).  ``server_id`` is also the
    repository placement affinity and the ``server`` telemetry label;
    ``None`` makes a standalone server (a vault's) with neither.
    ``telemetry``, ``chunk_log`` and ``checking`` are parts handed to the
    TPDS engine, which builds in-memory ones when they are omitted.
    """

    def __init__(
        self,
        server_id: Optional[int],
        repository: ChunkRepository,
        config: Optional[BackupServerConfig] = None,
        index: Optional[DiskIndex] = None,
        rig: Optional[PaperRig] = None,
        w_bits: int = 0,
        *,
        telemetry: Optional[MetricsRegistry] = None,
        chunk_log: Optional[ChunkLog] = None,
        checking: Optional[CheckingFile] = None,
    ) -> None:
        self.server_id = server_id
        number = server_id or 0
        self.config = config if config is not None else BackupServerConfig()
        self.w_bits = w_bits
        if index is None:
            index = DiskIndex(
                self.config.index_n_bits,
                bucket_bytes=self.config.index_bucket_bytes,
                prefix_bits=w_bits,
                prefix_value=number if w_bits else 0,
                seed=number,
            )
        self.clock = ClockLane(f"server-{number}")
        self.rig = rig if rig is not None else paper_rig()
        self.tpds = TwoPhaseDeduplicator(
            index,
            repository,
            filter_capacity=self.config.filter_capacity,
            cache_capacity=self.config.cache_capacity,
            container_bytes=self.config.container_bytes,
            materialize=self.config.materialize,
            siu_every=self.config.siu_every,
            rig=self.rig,
            clock=self.clock,
            affinity=server_id,
            telemetry=telemetry,
            chunk_log=chunk_log,
            checking=checking,
        )
        self.chunk_store = ChunkStore(self.tpds, lpc_containers=self.config.lpc_containers)

    # -- dedup-1 (the File Store) ----------------------------------------------
    def backup(
        self,
        files: Iterable[Tuple[FileMetadata, Sequence[StreamChunk]]],
        filtering: Optional[Iterable[bytes]] = None,
    ) -> Tuple[Dedup1Stats, List[FileIndexEntry]]:
        """One job run's dedup-1 session.

        ``files`` yields ``(metadata, chunks)`` per file, a chunk being
        ``(fp, size)`` or ``(fp, size, data)``; remote sessions pass
        ``data=None`` for chunks the preliminary filter will reject, which
        is how dedup-1 avoids moving duplicate payloads over the wire.
        ``filtering`` (the previous run's fingerprints, when the director
        supplies them) preloads the preliminary filter.  The whole stream
        is read before dedup-1 starts, so a stream that fails part-way
        leaves nothing in the chunk log.  Returns the session stats and
        each file's index entry (its fingerprint sequence).
        """
        files = list(files)
        entries = [FileIndexEntry(meta, [c[0] for c in chunks]) for meta, chunks in files]
        stats, _ = self.tpds.dedup1_backup(
            (c for _, chunks in files for c in chunks), filtering
        )
        return stats, entries

    # -- convenience passthroughs ----------------------------------------------
    @property
    def index(self) -> DiskIndex:
        return self.tpds.index

    @property
    def meter(self):
        return self.tpds.meter

    @property
    def undetermined_count(self) -> int:
        return self.tpds.undetermined_count

    @property
    def chunk_log_bytes(self) -> int:
        return self.tpds.chunk_log.size_bytes

    def owns(self, fp: bytes) -> bool:
        """True iff this server's index part is responsible for ``fp``."""
        return self.index.owns(fp)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BackupServer({self.server_id}, index={self.index!r})"
