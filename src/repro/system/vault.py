"""DebarVault: a persistent, single-server DEBAR deployment on local disk.

Everything the paper's single-server system keeps on disk, actually on
disk:

::

    vault/
      catalog.json     jobs, runs, file metadata + hex fingerprint indices
      index.bin        the DEBAR disk index (FileBlockStore-backed)
      containers/      one self-described file per sealed container

``catalog.json`` is read, written and understood by
:mod:`repro.system.catalog` alone; the vault asks its :class:`Catalog`.

A vault survives process restarts: reopening re-attaches the index (bucket
counts are rebuilt from the file), rescans the container directory, and
reloads the catalog.  Each ``backup()`` runs dedup-1 and a full dedup-2
(with SIU) before returning, so a closed vault never has in-flight state.
If ``index.bin`` is lost, :meth:`recover_index` rebuilds it from the
containers' metadata sections (Section 4.1's recovery path).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.backend.cache import LruMetaCache
from repro.backend.objectstore import ObjectStoreBackend, RequestProfile
from repro.backend.planner import TieredSource
from repro.chunking.cdc import ContentDefinedChunker
from repro.client.backup_client import BackupEngine
from repro.core.checking import CheckingFile
from repro.core.disk_index import DiskIndex
from repro.director.metadata import FileIndexEntry
from repro.durability.errors import CorruptionError
from repro.durability.framing import KIND_INDEX, Superblock, unpack_superblock
from repro.durability.fsshim import LocalFs
from repro.durability.recovery import RecoveryManager, RecoveryReport
from repro.server.backup_server import BackupServer, BackupServerConfig
from repro.storage.blockstore import FileBlockStore
from repro.storage.chunk_log import PersistentChunkLog
from repro.storage.reader import ChunkReader
from repro.storage.tiered import TieredChunkRepository
from repro.system.catalog import (  # re-exported: the vault's public names
    CATALOG_VERSION,
    Catalog,
    VaultError,
    VaultRun,
)
from repro.telemetry.clock import wall_now
from repro.telemetry.registry import MetricsRegistry, get_registry
from repro.telemetry.tracing import trace_span

import struct

PathLike = Union[str, Path]

_INDEX = "index.bin"
_INDEX_SB = "index.sb"
_CHUNK_LOG = "chunk.log"
_CHECKING = "checking.json"
_CONTAINERS = "containers"

#: Index-superblock payload: n_bits, bucket_bytes, entry count.
_INDEX_SB_PAYLOAD = struct.Struct("<III")


@dataclass
class GcReport:
    """Outcome of one garbage-collection pass."""

    containers_scanned: int = 0
    containers_removed: int = 0
    containers_rewritten: int = 0
    containers_kept_with_dead: int = 0
    live_chunks_copied: int = 0
    dead_chunks_dropped: int = 0
    bytes_reclaimed: int = 0


class DebarVault:
    """Open (or create) a DEBAR vault rooted at a directory."""

    def __init__(
        self,
        root: PathLike,
        *,
        index_n_bits: int = 12,
        index_bucket_bytes: int = 512,
        container_bytes: int = 1 << 20,
        filter_capacity: int = 1 << 16,
        cache_capacity: int = 1 << 20,
        telemetry: Optional[MetricsRegistry] = None,
        fs: Optional[LocalFs] = None,
        auto_recover: bool = True,
    ) -> None:
        self.telemetry = telemetry if telemetry is not None else get_registry()
        self.fs = fs if fs is not None else LocalFs()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: The run catalog; an existing one overrides the geometry arguments.
        self.catalog = Catalog(
            self.root, self.fs, index_n_bits, index_bucket_bytes, container_bytes
        )
        index_n_bits = self.catalog.index_n_bits
        index_bucket_bytes = self.catalog.index_bucket_bytes
        container_bytes = self.container_bytes = self.catalog.container_bytes
        self._t_retries = self.telemetry.counter(
            "io.retries", "transient I/O errors retried by the storage layer"
        ).labels()
        self.repository = TieredChunkRepository(
            self.root / _CONTAINERS,
            container_bytes=container_bytes,
            fs=self.fs,
            on_retry=self._t_retries.inc,
        )
        if self.catalog.cold:
            self._attach_cold(self.catalog.cold)
        index_size = (1 << index_n_bits) * index_bucket_bytes
        self._index_store = FileBlockStore(
            self.root / _INDEX, index_size, fs=self.fs, on_retry=self._t_retries.inc
        )
        index = DiskIndex(
            index_n_bits, bucket_bytes=index_bucket_bytes, store=self._index_store
        )
        self._index_generation = self._read_index_generation()
        #: The backup server: the same engine DebarSystem and every cluster
        #: node run, over this vault's file-backed parts.
        self.server = BackupServer(
            None,
            self.repository,
            BackupServerConfig(
                filter_capacity=filter_capacity,
                cache_capacity=cache_capacity,
                container_bytes=container_bytes,
                materialize=True,
            ),
            index=index,
            telemetry=self.telemetry,
            chunk_log=PersistentChunkLog(
                self.root / _CHUNK_LOG, registry=self.telemetry, fs=self.fs
            ),
            checking=CheckingFile(self.root / _CHECKING, fs=self.fs),
        )
        self.tpds = self.server.tpds
        self.chunk_store = self.server.chunk_store
        self.engine = BackupEngine(
            "vault", chunker=ContentDefinedChunker(), registry=self.telemetry
        )
        self._t_backups = self.telemetry.counter(
            "vault.backups", "backup runs completed by this vault"
        ).labels()
        self._t_restores = self.telemetry.counter(
            "vault.restores", "restore operations completed by this vault"
        ).labels()
        if self.catalog.created:
            self.catalog.save()
        #: Outbound shippers (repro.replication / repro.archive), attached
        #: by the serve CLI when --replicate-to / --archive-to is
        #: configured; ``None`` standalone.  Every committed run notifies
        #: them, strictly after dedup-2 + catalog commit (a gc pass
        #: notifies the replicator too: copy-forward containers are new).
        self.replicator: Optional[object] = None
        self.archive_shipper: Optional[object] = None
        #: What the open-time recovery pass found (``None`` when disabled).
        self.recovery_report: Optional[RecoveryReport] = None
        if auto_recover:
            self.recovery_report = RecoveryManager(self).run()
            if self.recovery_report.replayed:
                self._sync_index_geometry()
                self._flush_index()

    # -- cold tier ----------------------------------------------------------------
    def _cold_root(self, config: dict) -> Path:
        root = Path(config["root"])
        return root if root.is_absolute() else self.root / root

    def _attach_cold(self, config: dict) -> None:
        backend = ObjectStoreBackend(
            self._cold_root(config),
            profile=RequestProfile.from_json(config.get("profile")),
            registry=self.telemetry,
        )
        self.repository.attach_cold(
            backend,
            meta_cache=LruMetaCache(
                capacity=int(config.get("meta_cache_capacity", 1024)),
                registry=self.telemetry,
            ),
        )

    def enable_cold_tier(
        self,
        root: Optional[PathLike] = None,
        profile: Optional[RequestProfile] = None,
        meta_cache_capacity: int = 1024,
    ) -> None:
        """Attach an object-store cold tier and persist it in the catalog.

        ``root`` is the bucket directory (default ``<vault>/cold``; stored
        relative to the vault root when inside it, so the vault stays
        relocatable).  Idempotent — re-enabling rewires the same bucket.
        Every subsequent open re-attaches automatically.
        """
        path = Path(root) if root is not None else self.root / "cold"
        try:
            stored = str(path.resolve().relative_to(self.root.resolve()))
        except ValueError:
            stored = str(path)
        config = {
            "backend": "object",
            "root": stored,
            "profile": (profile or RequestProfile()).to_json(),
            "meta_cache_capacity": meta_cache_capacity,
        }
        self._attach_cold(config)
        self.catalog.set_cold(config)

    def reader(self, plan=None, fallbacks=()):
        """The vault's chunk reader — the one place the tier is decided.

        Hot-only and nothing to fall through to: the bare chunk store (the
        LPC is the planner there; no layer is added to the hot path).
        With a cold tier: hot chunks still flow through the LPC, cold
        chunks through planned, coalesced multi-range GETs, primed with
        ``plan`` (the fingerprint sequence about to be read).
        ``fallbacks`` are further named sources tried in order after the
        local store — a dead cold backend raises ``OSError`` and falls
        through to them like any other miss.
        """
        local = self.chunk_store
        if self.repository.cold is not None:
            local = TieredSource(
                self.repository, self.tpds.index, self.chunk_store,
                registry=self.telemetry,
            )
        elif not fallbacks:
            return local
        return ChunkReader(
            [("local vault", local), *fallbacks], plan, registry=self.telemetry
        )

    # -- index superblock ---------------------------------------------------------
    def _read_index_generation(self) -> int:
        sb_path = self.root / _INDEX_SB
        if not self.fs.exists(sb_path):
            return 0
        try:
            sb, _ = unpack_superblock(self.fs.read_file(sb_path), artifact="index superblock")
            return sb.generation if sb.kind == KIND_INDEX else 0
        except CorruptionError:
            return 0  # rewritten at the next flush; scrub reports the damage

    def _write_index_superblock(self) -> None:
        """Stamp the index sidecar: geometry + entry count, fresh generation."""
        index = self.tpds.index
        self._index_generation += 1
        payload = _INDEX_SB_PAYLOAD.pack(
            index.n_bits, index.bucket_bytes, index.entry_count
        )
        self.fs.write_file(
            self.root / _INDEX_SB,
            Superblock(KIND_INDEX, self._index_generation, payload).pack(),
        )

    def _flush_index(self) -> None:
        self._index_store.flush()
        self._write_index_superblock()

    # -- public API --------------------------------------------------------------------
    def runs(self, job: Optional[str] = None) -> List[VaultRun]:
        """All recorded runs, oldest first (optionally one job's chain)."""
        return self.catalog.runs(job)

    def latest_run(self, job: str) -> Optional[VaultRun]:
        chain = self.runs(job)
        return chain[-1] if chain else None

    def filtering_for(self, job: str) -> Optional[List[bytes]]:
        """The filtering fingerprints for a job's next run: the previous
        run's full fingerprint sequence (the paper's job-chain semantics),
        or ``None`` on a first run."""
        previous = self.latest_run(job)
        if previous is None:
            return None
        return [fp for e in previous.files for fp in e.fingerprints]

    def backup(
        self, job: str, dataset: List[PathLike], timestamp: Optional[float] = None
    ) -> VaultRun:
        """Back up a dataset under a job name; dedup-2 completes inline.

        The previous run of the same job seeds the preliminary filter, per
        the paper's job-chain semantics.  ``timestamp`` defaults to the
        telemetry wall clock (:func:`repro.telemetry.clock.wall_now`), the
        single time source the CLI and tests can redirect.
        """
        files = self.engine.iter_stream([Path(p) for p in dataset])
        return self.backup_stream(job, files, timestamp=timestamp)

    def backup_stream(
        self,
        job: str,
        files,
        timestamp: Optional[float] = None,
        filtering: Optional[List[bytes]] = None,
    ) -> VaultRun:
        """Back up pre-chunked file streams (the local and remote paths share
        this).

        ``files`` yields ``(FileMetadata, [stream chunks])`` pairs where a
        stream chunk is ``(fp, size, data)`` — ``data`` may be ``None`` for
        chunks the preliminary filter is about to reject, which is what a
        remote session sends for payloads it never transferred.
        ``filtering`` overrides the job-chain filtering fingerprints; a
        remote session passes the set it captured at session begin so its
        per-chunk admission decisions replay identically at commit.
        """
        if not job:
            raise VaultError("job name required")
        if timestamp is None:
            timestamp = wall_now()
        if filtering is None:
            filtering = self.filtering_for(job)
        with trace_span("backup", sim_clock=self.tpds.clock, job=job) as span:
            with trace_span("client.ingest", sim_clock=self.tpds.clock) as ingest:
                files = list(files)
                ingest.annotate(files=len(files))
            stats, entries = self.server.backup(files, filtering)  # span "dedup1"
            self.tpds.dedup2(force_siu=True)  # child span "dedup2"
            with trace_span("catalog", sim_clock=self.tpds.clock):
                self._sync_index_geometry()
                self._flush_index()
                run = VaultRun(
                    run_id=self.catalog.next_run_id(),
                    job=job,
                    timestamp=timestamp,
                    logical_bytes=stats.logical_bytes,
                    transferred_bytes=stats.transferred_bytes,
                    files=entries,
                )
                self.catalog.record(run)
            span.set_io(bytes_in=stats.logical_bytes, bytes_out=stats.transferred_bytes)
            span.annotate(run_id=run.run_id)
        self._t_backups.inc()
        for shipper in (self.replicator, self.archive_shipper):
            if shipper is not None:
                # Strictly after dedup-2 + catalog commit: the inline path
                # is done; the newly sealed containers (DESIGN.md §11.2)
                # and the run's delta (§15.4) are only *queued* here and
                # ship asynchronously, so their inline cost stays ~0%.
                shipper.notify_run(run)
        return run

    def _sync_index_geometry(self) -> None:
        """Track index capacity scaling in the catalog and store handle.

        ``dedup2`` may have scaled the index (new n_bits, new backing file
        committed over ``index.bin``); the catalog must record the new
        geometry and the vault must flush the *current* store, or the next
        open re-attaches the wrong-sized index.
        """
        index = self.tpds.index
        if index.n_bits != self.catalog.index_n_bits:
            self._index_store = index.store
            self.catalog.set_index_n_bits(index.n_bits)

    def run_entries(
        self, run_id: int, job: Optional[str] = None
    ) -> List[FileIndexEntry]:
        """The file indices of a recorded run (what ``META_GET`` serves)."""
        return self.catalog.find(run_id, job).files

    def restore(
        self,
        run_id: int,
        dest: PathLike,
        strip_prefix: PathLike = "/",
        job: Optional[str] = None,
        fallbacks=(),
    ) -> List[Path]:
        """Restore every file of a recorded run into ``dest``.

        ``job`` narrows the lookup to that job's chain — run ids are
        only unique per vault, so cluster callers qualify them;
        ``fallbacks`` are chunk sources behind the local store (see
        :meth:`reader`).
        """
        entries = self.run_entries(run_id, job=job)
        reader = self.reader((fp for e in entries for fp in e.fingerprints), fallbacks)
        with trace_span("restore", sim_clock=self.tpds.clock, run_id=run_id) as span:
            paths = self.engine.restore_run(entries, reader, dest, strip_prefix)
            span.set_io(bytes_out=sum(e.metadata.size for e in entries))
            span.annotate(files=len(paths))
        self._t_restores.inc()
        return paths

    def restore_as_of(
        self,
        as_of: int,
        dest: PathLike,
        strip_prefix: PathLike = "/",
        job: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> List[Path]:
        """Point-in-time restore (DESIGN.md §15.5): the live catalog when
        it still records the run (the same bytes, without folding a delta
        chain), else the archived chain under ``<vault>/archive``."""
        try:
            self.catalog.find(as_of, job)
        except VaultError:
            from repro.archive import ArchiveStore, restore_local

            store = ArchiveStore(self.root / "archive", registry=self.telemetry)
            return restore_local(
                store, as_of, dest, strip_prefix, job=job, origin=origin,
                registry=self.telemetry,
            )
        return self.restore(as_of, dest, strip_prefix=strip_prefix, job=job)

    def verify(self, deep: bool = False) -> Dict[str, int]:
        """Integrity check: every catalogued fingerprint must resolve.

        ``deep=True`` additionally reads every referenced chunk and
        recomputes its SHA-1 — content addressing makes silent corruption
        detectable end to end (a flipped bit in any container payload
        changes the digest).  Each referenced container is read from the
        repository once, in container order.  Returns counters; raises
        :class:`~repro.durability.errors.CorruptionError` (carrying the
        container ID and fingerprint) on the first inconsistency.
        """
        from repro.core.fingerprint import fingerprint as sha1

        checked = 0
        deep_checked = 0
        wanted: Dict[int, set] = {}
        for _, fps in self.catalog.iter_run_fingerprints():
            for fp in fps:
                cid = self.tpds.index.lookup(fp)
                if cid is None:
                    raise CorruptionError(
                        f"fingerprint {fp.hex()[:12]} missing from index",
                        artifact="index", fingerprint=fp,
                    )
                checked += 1
                if deep:
                    wanted.setdefault(cid, set()).add(fp)
        for cid in sorted(wanted):
            try:
                container = self.repository.fetch(cid)
            except KeyError:
                container = ()  # a missing container holds nothing
            for fp in sorted(wanted.pop(cid)):
                if fp not in container:
                    raise CorruptionError(
                        f"index points fingerprint {fp.hex()[:12]} at "
                        f"container {cid}, which does not hold it",
                        artifact="index", container_id=cid, fingerprint=fp,
                    )
                if sha1(container.get(fp)) != fp:
                    raise CorruptionError(
                        f"payload of {fp.hex()[:12]} does not match its "
                        f"fingerprint — container {cid} is corrupt",
                        artifact="container", container_id=cid, fingerprint=fp,
                    )
                deep_checked += 1
            container = None  # one image in memory at a time, not two
        return {
            "runs": len(self.catalog),
            "fingerprints": checked,
            "payloads_verified": deep_checked,
        }

    def audit(self, deep: bool = False):
        """Sweep every invariant the store depends on (see :mod:`repro.audit`).

        Unlike :meth:`verify`, which stops at the first inconsistency, the
        auditor checks index placement/overflow invariants, index <->
        container cross-references, catalog restorability and index
        durability, and reports *all* findings.
        """
        from repro.audit import audit_vault

        return audit_vault(self, deep=deep)

    def diff(self, run_a: int, run_b: int) -> Dict[str, List[str]]:
        """Compare two runs at file granularity via their fingerprints.

        Returns paths ``added``/``removed``/``changed``/``unchanged`` going
        from ``run_a`` to ``run_b`` — fingerprint sequences make equality
        exact with no byte comparison.
        """
        def files_of(run_id: int) -> Dict[str, List[bytes]]:
            return {e.metadata.path: e.fingerprints for e in self.run_entries(run_id)}

        a, b = files_of(run_a), files_of(run_b)
        return {
            "added": sorted(set(b) - set(a)),
            "removed": sorted(set(a) - set(b)),
            "changed": sorted(p for p in set(a) & set(b) if a[p] != b[p]),
            "unchanged": sorted(p for p in set(a) & set(b) if a[p] == b[p]),
        }

    def recover_index(self) -> int:
        """Rebuild the disk index from container metadata (Section 4.1).

        Used when ``index.bin`` is lost or corrupted; returns the number of
        entries recovered.
        """
        index = self.tpds.index
        fresh = DiskIndex(
            index.n_bits,
            bucket_bytes=index.bucket_bytes,
            store=None,
        )
        for fp, cid in self.repository.iter_index_entries():
            fresh.insert(fp, cid)
        # Persist the rebuilt index over the file store.
        for k in range(fresh.n_buckets):
            index.write_bucket(fresh.read_bucket(k))
        self._flush_index()
        return len(fresh)

    # -- retention and garbage collection ---------------------------------------
    def forget(self, run_id: int, job: Optional[str] = None) -> None:
        """Drop a run from the catalog; its chunks remain until :meth:`gc`.

        This is the retention operation the paper leaves open: deletion in
        a de-duplicating store cannot remove chunks inline because later
        runs may share them — reclamation is a separate, reference-counted
        sweep.  ``job`` pins the (per-vault) run id to one job's chain so
        a cluster-routed forget cannot delete an unrelated job's run.
        """
        self.catalog.forget(run_id, job)

    def live_fingerprints(self) -> set:
        """Fingerprints referenced by any catalogued run."""
        live = set()
        for _, fps in self.catalog.iter_run_fingerprints():
            live.update(fps)
        return live

    def gc(
        self, rewrite_threshold: float = 0.5, extra_live: Iterable[bytes] = ()
    ) -> GcReport:
        """Reclaim space from chunks no catalogued run references.

        ``extra_live`` are further fingerprints to keep: a daemon passes the
        filtering fingerprints of its open sessions, whose clients skip
        uploading those chunks because they trust them stored.

        Three-way disposition per container: fully live -> keep; fully
        dead -> delete (and purge its index entries); partially live with
        a live fraction at or below ``rewrite_threshold`` -> copy the live
        chunks forward into fresh containers, repoint their index entries,
        and delete the original.  Mostly-live containers are kept and the
        dead space tolerated, bounding GC write amplification.
        """
        if not 0 <= rewrite_threshold <= 1:
            raise VaultError("rewrite_threshold must be in [0, 1]")
        with trace_span("gc", sim_clock=self.tpds.clock) as gc_span:
            report = self._gc(rewrite_threshold, extra_live)
            gc_span.set_io(bytes_out=report.bytes_reclaimed)
            gc_span.annotate(
                removed=report.containers_removed,
                rewritten=report.containers_rewritten,
            )
        if self.replicator is not None and (
            report.containers_rewritten or report.containers_removed
        ):
            # Copy-forward containers are new sealed containers: they need
            # replicas too (removed originals simply stop being owed).
            self.replicator.notify_run(None)
        return report

    def _gc(self, rewrite_threshold: float, extra_live: Iterable[bytes]) -> GcReport:
        live = self.live_fingerprints()
        live.update(extra_live)
        report = GcReport()
        index = self.tpds.index
        writer: Optional["ContainerWriter"] = None
        pending: List[bytes] = []

        from repro.storage.container import ContainerWriter

        def remove(cid: int) -> None:
            self.repository.remove(cid)
            # A warm LPC would still route reads of its chunks here.
            self.chunk_store.lpc.discard(cid)

        def seal_writer() -> None:
            nonlocal writer
            if writer is None or not len(writer):
                writer = None
                return
            cid = self.repository.allocate_id()
            container = writer.seal(cid)
            self.repository.store(container)
            for fp in pending:
                if not index.update(fp, cid):
                    index.insert(fp, cid)
            pending.clear()
            writer = None

        for cid in list(self.repository.container_ids()):
            container = self.repository.fetch(cid)
            report.containers_scanned += 1
            live_records = [r for r in container.records if r.fingerprint in live]
            dead = len(container.records) - len(live_records)
            if dead == 0:
                continue
            if not live_records:
                for record in container.records:
                    index.delete(record.fingerprint)
                remove(cid)
                report.containers_removed += 1
                report.dead_chunks_dropped += dead
                report.bytes_reclaimed += container.data_bytes
                continue
            live_fraction = len(live_records) / len(container.records)
            if live_fraction > rewrite_threshold:
                report.containers_kept_with_dead += 1
                continue
            # Copy-forward: live chunks move, dead chunks vanish.
            for record in live_records:
                payload = container.get(record.fingerprint)
                if writer is None:
                    writer = ContainerWriter(self.container_bytes, materialize=True)
                if not writer.fits(record.size):
                    seal_writer()
                    writer = ContainerWriter(self.container_bytes, materialize=True)
                # The stored CRC moves with the chunk: recomputing it from
                # bytes read back would bless any rot they picked up.
                writer.add(record.fingerprint, data=payload, crc=record.crc)
                pending.append(record.fingerprint)
                report.live_chunks_copied += 1
            for record in container.records:
                if record.fingerprint not in live:
                    index.delete(record.fingerprint)
                    report.dead_chunks_dropped += 1
                    report.bytes_reclaimed += record.size
            remove(cid)
            report.containers_rewritten += 1
        seal_writer()
        self._flush_index()
        return report

    def stats(self) -> Dict[str, float]:
        """Vault-level accounting (also published as telemetry gauges)."""
        logical = self.catalog.logical_bytes
        physical = self.repository.stored_chunk_bytes
        stats = {
            "runs": len(self.catalog),
            "logical_bytes": logical,
            "physical_bytes": physical,
            "compression_ratio": logical / physical if physical else float("inf"),
            "containers": len(self.repository),
            "containers_cold": sum(
                1
                for cid in self.repository.container_ids()
                if self.repository.tier_of(cid) == "cold"
            ),
            "index_entries": len(self.tpds.index),
            "index_utilization": self.tpds.index.utilization,
        }
        for key, value in stats.items():
            if value != float("inf"):
                self.telemetry.gauge(
                    f"vault.{key}", f"vault accounting: {key}"
                ).set(value)
        return stats

    def close(self) -> None:
        """Flush and release the on-disk index."""
        self._flush_index()
        self._index_store.close()

    def __enter__(self) -> "DebarVault":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
