"""Single-server DEBAR: the whole Figure 2 stack behind one facade.

Two usage styles:

* **File mode** — back up real directories with CDC chunking and restore
  them byte-identical (the quickstart example).
* **Fingerprint-stream mode** — drive the de-duplication machinery with
  workload-model streams of (fingerprint, size) pairs, the way the paper's
  own evaluation does (Section 6.2), with payloads virtualized.

Both styles share the director (job chains, metadata, dedup-2 policy) and
the backup server (TPDS, containers, LPC).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.client.backup_client import BackupEngine
from repro.core.tpds import Dedup1Stats, Dedup2Stats, StreamChunk
from repro.director.director import Director
from repro.director.jobs import JobObject, JobRun
from repro.director.scheduler import Dedup2Policy
from repro.server.backup_server import BackupServer, BackupServerConfig, stream_file
from repro.simdisk import PaperRig
from repro.storage.repository import ChunkRepository


class DebarSystem:
    """A director + one backup server + a chunk repository."""

    def __init__(
        self,
        config: Optional[BackupServerConfig] = None,
        policy: Optional[Dedup2Policy] = None,
        rig: Optional[PaperRig] = None,
        repository_nodes: int = 1,
    ) -> None:
        self.repository = ChunkRepository(repository_nodes)
        self.config = config if config is not None else BackupServerConfig()
        if policy is None:
            policy = Dedup2Policy(undetermined_threshold=self.config.cache_capacity)
        self.director = Director(n_servers=1, policy=policy)
        self.server = BackupServer(0, self.repository, config=self.config, rig=rig)
        self._engines = {}

    # -- job management --------------------------------------------------------
    def define_job(
        self,
        name: str,
        client: str,
        dataset: Sequence[Union[str, Path]] = (),
        schedule: str = "daily at 1.05am",
    ) -> JobObject:
        """Register a backup job object with the director."""
        return self.director.define_job(name, client, [str(p) for p in dataset], schedule)

    def _engine(self, client: str) -> BackupEngine:
        if client not in self._engines:
            self._engines[client] = BackupEngine(client)
        return self._engines[client]

    # -- backup -------------------------------------------------------------------
    def run_backup(self, job: JobObject, timestamp: float = 0.0) -> Tuple[JobRun, Dedup1Stats]:
        """Execute one file-mode run of a job: read, chunk, dedup-1.

        The preliminary filter is seeded with the previous run of the job
        chain, exactly per Section 5.1.
        """
        files = self._engine(job.client).iter_stream(job.dataset)
        return self._backup(job, files, timestamp, auto_dedup2=True)

    def backup_stream(
        self,
        job: JobObject,
        stream: Iterable[StreamChunk],
        timestamp: float = 0.0,
        label: str = "<stream>",
        auto_dedup2: bool = True,
    ) -> Tuple[JobRun, Dedup1Stats]:
        """Execute one fingerprint-stream run of a job (workload models)."""
        return self._backup(job, [stream_file(label, stream)], timestamp, auto_dedup2)

    def _backup(self, job: JobObject, files, timestamp: float, auto_dedup2: bool):
        server_id = self.director.assign_backup(job)
        run = self.director.begin_run(job, timestamp, server_id)
        filtering = self.director.filtering_fingerprints(job)
        stats, entries = self.server.backup(files, filtering)
        run.logical_bytes = stats.logical_bytes
        run.transferred_bytes = stats.transferred_bytes
        run.chunk_count = stats.logical_chunks
        self.director.complete_run(run, entries)
        if auto_dedup2:
            self._maybe_dedup2()
        return run, stats

    def _maybe_dedup2(self) -> None:
        if self.director.should_run_dedup2(
            [self.server.undetermined_count], [self.server.chunk_log_bytes]
        ):
            self.run_dedup2()

    # -- dedup-2 ----------------------------------------------------------------------
    def run_dedup2(self, force_siu: Optional[bool] = None) -> Dedup2Stats:
        """Director-initiated dedup-2 on the backup server."""
        stats = self.server.tpds.dedup2(force_siu=force_siu)
        self.director.record_dedup2()
        return stats

    # -- restore ---------------------------------------------------------------------
    def restore_run(
        self,
        run: JobRun,
        dest_dir: Union[str, Path],
        strip_prefix: Union[str, Path] = "/",
    ) -> List[Path]:
        """Restore every file of a run into ``dest_dir`` (file mode)."""
        entries = self.director.metadata.files_for_run(run.run_id)
        engine = self._engine(run.job.client)
        return engine.restore_run(entries, self.server.chunk_store, dest_dir, strip_prefix)

    def restore_fingerprints(self, run: JobRun) -> List[bytes]:
        """Fetch every chunk of a stream-mode run (returns payload bytes)."""
        entries = self.director.metadata.files_for_run(run.run_id)
        out: List[bytes] = []
        for entry in entries:
            for fp in entry.fingerprints:
                out.append(self.server.chunk_store.read_chunk(fp))
        return out

    def verify_run(self, run: JobRun, deep: bool = True) -> dict:
        """The director's *verify* operation (Section 3.1).

        Confirms every chunk a run references is resolvable; with ``deep``
        (and materialized payloads) each chunk is re-read and its SHA-1
        recomputed against the file index's fingerprint, so any container
        corruption surfaces.  Raises
        :class:`~repro.durability.errors.CorruptionError` on the first
        inconsistency; returns counters otherwise.
        """
        from repro.core.fingerprint import fingerprint as sha1
        from repro.durability.errors import CorruptionError

        checked = deep_checked = 0
        for entry in self.director.metadata.files_for_run(run.run_id):
            for fp in entry.fingerprints:
                try:
                    payload = self.server.chunk_store.read_chunk(fp)
                except KeyError as exc:
                    # A recorded run referencing an unresolvable chunk is
                    # corruption, not a mere lookup miss.
                    raise CorruptionError(
                        f"chunk {fp.hex()[:12]} of {entry.metadata.path} "
                        "is unresolvable",
                        fingerprint=fp,
                    ) from exc
                checked += 1
                if deep and self.config.materialize:
                    if sha1(payload) != fp:
                        raise CorruptionError(
                            f"chunk {fp.hex()[:12]} of {entry.metadata.path} "
                            "does not match its fingerprint",
                            fingerprint=fp,
                        )
                    deep_checked += 1
        return {"chunks": checked, "payloads_verified": deep_checked}

    def audit(self, deep: bool = False):
        """Full consistency sweep: index invariants, index <-> repository
        cross-references and restorability of every recorded run
        (see :mod:`repro.audit`)."""
        from repro.audit import audit_system

        return audit_system(self, deep=deep)

    # -- accounting ---------------------------------------------------------------------
    @property
    def logical_bytes_protected(self) -> int:
        """Total logical bytes across all completed runs."""
        total = 0
        for chain in self.director._chains.values():
            total += sum(r.logical_bytes for r in chain.runs)
        return total

    @property
    def physical_bytes_stored(self) -> int:
        """Payload bytes stored in the repository (post both dedup phases)."""
        return self.repository.stored_chunk_bytes

    @property
    def compression_ratio(self) -> float:
        """Cumulative logical : physical compression."""
        physical = self.physical_bytes_stored
        return self.logical_bytes_protected / physical if physical else float("inf")

    @property
    def elapsed(self) -> float:
        """Simulated seconds of backup-server work so far."""
        return self.server.clock.now
