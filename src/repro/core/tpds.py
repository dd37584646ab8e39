"""The Two-Phase De-duplication Scheme — TPDS (Sections 2 and 5).

This module is the single-server engine: dedup-1 (preliminary filtering into
the chunk log) and dedup-2 (SIL -> chunk storing -> SIU) over one disk index
and one chunk repository.  The cluster variant (PSIL/PSIU across ``2^w``
servers) composes these same pieces in :mod:`repro.system.cluster`.

Data flow, following Figure 2:

::

    client stream --(preliminary filter)--> chunk log + undetermined fps     [dedup-1]
    undetermined fps --SIL--> index cache (new fps) + duplicates
    new fps --(checking file screen)--> genuinely new
    chunk log --(chunk storing, SISL)--> containers -> chunk repository
    unregistered fps --SIU--> disk index                                      [dedup-2]

Every phase charges simulated device time to a :class:`Meter` so that the
throughput decompositions of Figures 8-10 fall out of the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.checking import CheckingFile
from repro.core.disk_index import DiskIndex, IndexFullError
from repro.core.fingerprint import Fingerprint
from repro.durability.errors import DiskFullError
from repro.core.index_cache import PENDING_CONTAINER, IndexCache
from repro.core.preliminary_filter import FilterDecision, PreliminaryFilter
from repro.core.sil import SequentialIndexLookup
from repro.core.siu import SequentialIndexUpdate
from repro.simdisk import Meter, PaperRig, SimClock, paper_rig
from repro.storage.chunk_log import ChunkLog
from repro.storage.container import CONTAINER_SIZE, ContainerManager, ContainerWriter
from repro.storage.repository import ChunkRepository
from repro.core.fingerprint import FINGERPRINT_SIZE
from repro.telemetry.registry import MetricsRegistry, get_registry
from repro.telemetry.tracing import trace_span

#: A stream element: (fingerprint, chunk size) or (fingerprint, size, data).
StreamChunk = Union[Tuple[Fingerprint, int], Tuple[Fingerprint, int, bytes]]


@dataclass
class Dedup1Stats:
    """Outcome of one dedup-1 backup session."""

    logical_bytes: int = 0
    logical_chunks: int = 0
    transferred_bytes: int = 0
    transferred_chunks: int = 0
    filtered_chunks: int = 0
    filtered_bytes: int = 0
    undetermined_fingerprints: int = 0
    elapsed: float = 0.0

    @property
    def compression_ratio(self) -> float:
        """Dedup-1 data reduction: logical over transferred bytes."""
        return self.logical_bytes / self.transferred_bytes if self.transferred_bytes else float("inf")

    @property
    def throughput(self) -> float:
        """Logical bytes per simulated second."""
        return self.logical_bytes / self.elapsed if self.elapsed else float("inf")


@dataclass
class Dedup2Stats:
    """Outcome of one dedup-2 run."""

    log_bytes_processed: int = 0
    log_chunks_processed: int = 0
    new_chunks_stored: int = 0
    new_bytes_stored: int = 0
    duplicate_chunks: int = 0
    #: Chunk-log records discarded because their fingerprint was resolved as
    #: duplicate (SIL/checking) or already stored earlier in this replay.
    log_records_discarded: int = 0
    containers_written: int = 0
    sil_rounds: int = 0
    siu_performed: bool = False
    capacity_scalings: int = 0
    sil_time: float = 0.0
    storing_time: float = 0.0
    siu_time: float = 0.0
    elapsed: float = 0.0

    @property
    def compression_ratio(self) -> float:
        """Dedup-2 data reduction: log bytes in over container bytes out."""
        return self.log_bytes_processed / self.new_bytes_stored if self.new_bytes_stored else float("inf")

    @property
    def throughput(self) -> float:
        """Chunk-log bytes processed per simulated second."""
        return self.log_bytes_processed / self.elapsed if self.elapsed else float("inf")


class TwoPhaseDeduplicator:
    """One backup server's TPDS engine.

    Parameters
    ----------
    index:
        The server's disk index (or index part in a cluster).
    repository:
        The chunk repository containers are appended to.
    filter_capacity:
        Preliminary-filter capacity in fingerprints.
    cache_capacity:
        Index-cache capacity in fingerprints; oversized dedup-2 batches are
        split into multiple SIL rounds of at most this many fingerprints.
    container_bytes / materialize:
        Container geometry; ``materialize=False`` keeps payloads virtual.
    siu_every:
        Run SIU after every ``siu_every``-th dedup-2 (asynchronous SIU, one
        SIU servicing several SILs, Section 5.4).
    rig / clock:
        Device cost models and the simulated clock; ``rig=None`` selects the
        paper's rig (:func:`~repro.simdisk.presets.paper_rig`) — simulated
        time is always accounted.
    affinity:
        Repository placement affinity (the server number in a cluster).
    telemetry:
        Metrics registry to report pipeline counters/spans to; defaults to
        the process-wide registry (a no-op unless telemetry is enabled).
    """

    def __init__(
        self,
        index: DiskIndex,
        repository: ChunkRepository,
        *,
        filter_capacity: int = 1 << 16,
        cache_capacity: int = 1 << 20,
        container_bytes: int = CONTAINER_SIZE,
        materialize: bool = False,
        siu_every: int = 1,
        rig: Optional[PaperRig] = None,
        clock: Optional[SimClock] = None,
        affinity: Optional[int] = None,
        telemetry: Optional[MetricsRegistry] = None,
        chunk_log: Optional[ChunkLog] = None,
        checking: Optional[CheckingFile] = None,
    ) -> None:
        if siu_every < 1:
            raise ValueError("siu_every must be >= 1")
        self.index = index
        self.repository = repository
        self.filter_capacity = filter_capacity
        self.cache_capacity = cache_capacity
        self.container_bytes = container_bytes
        self.materialize = materialize
        self.siu_every = siu_every
        self.affinity = affinity
        self.rig = rig if rig is not None else paper_rig()
        self.clock = clock if clock is not None else SimClock()
        self.telemetry = telemetry if telemetry is not None else get_registry()
        self.meter = Meter(self.clock, registry=self.telemetry)
        self.container_manager = ContainerManager(repository, registry=self.telemetry)
        # Injectable persistence: the vault passes a PersistentChunkLog and a
        # file-backed CheckingFile so dedup-2 state survives crashes.
        self.chunk_log = chunk_log if chunk_log is not None else ChunkLog(registry=self.telemetry)
        self.checking = checking if checking is not None else CheckingFile()
        self._bind_instruments(self.telemetry)
        self._undetermined: List[Fingerprint] = []
        self._inflight: List[Fingerprint] = []
        self._unregistered: Dict[Fingerprint, int] = {}
        self._dedup2_since_siu = 0
        self.capacity_scalings = 0
        #: Fault-injection hook: called with a checkpoint name at each
        #: dedup-2 step boundary (see :mod:`repro.audit.faults`).  ``None``
        #: (the default) costs one attribute check per checkpoint.
        self.fault_hook: Optional[Callable[[str], None]] = None

    def _bind_instruments(self, registry: MetricsRegistry) -> None:
        """Create the pipeline's counter children once, at construction.

        Hot paths increment cached children; with telemetry disabled every
        child is the shared no-op instrument.
        """
        label = {} if self.affinity is None else {"server": str(self.affinity)}
        counter = lambda name, help_: registry.counter(name, help_).labels(**label)
        self._t_d1_sessions = counter(
            "dedup1.sessions", "dedup-1 backup sessions completed")
        self._t_d1_logical_bytes = counter(
            "dedup1.bytes_logical", "logical bytes presented to dedup-1")
        self._t_d1_transferred_bytes = counter(
            "dedup1.bytes_transferred", "bytes surviving the preliminary filter")
        self._t_d1_chunks = counter(
            "dedup1.chunks", "chunks presented to dedup-1")
        self._t_d1_filtered = counter(
            "dedup1.chunks_filtered", "chunks the preliminary filter removed")
        self._t_d2_runs = counter(
            "dedup2.runs", "dedup-2 executions")
        self._t_d2_duplicates = counter(
            "dedup2.duplicate_chunks", "chunks dedup-2 resolved as duplicates")
        self._t_d2_new_chunks = counter(
            "dedup2.new_chunks", "genuinely new chunks stored by dedup-2")
        self._t_d2_new_bytes = counter(
            "dedup2.new_bytes", "payload bytes of genuinely new chunks stored")
        self._t_d2_log_bytes = counter(
            "dedup2.log_bytes_replayed", "chunk-log bytes replayed by chunk storing")
        self._t_d2_discarded = counter(
            "dedup2.log_records_discarded", "chunk-log records discarded as duplicate")

    def _checkpoint(self, point: str) -> None:
        """Announce a dedup-2 step boundary to the fault-injection hook."""
        if self.fault_hook is not None:
            self.fault_hook(point)

    # ------------------------------------------------------------------ dedup-1
    def dedup1_backup(
        self,
        stream: Iterable[StreamChunk],
        filtering_fps: Optional[Iterable[Fingerprint]] = None,
    ) -> Tuple[Dedup1Stats, List[Fingerprint]]:
        """Run one backup session through the preliminary filter.

        Returns the session stats and the *file index* — the full fingerprint
        sequence of the stream, which the director stores to make the backup
        restorable (Section 3.3).

        A materialized engine never logs a group without its payload: an
        admitted chunk that arrives without data (a remote client that
        skipped its upload) counts as filtered when the index or the
        checking file already holds it, and otherwise the whole session is
        refused with :class:`ValueError` before anything is appended.
        """
        t0 = self.clock.now
        stats = Dedup1Stats()
        file_index: List[Fingerprint] = []
        with trace_span("dedup1", sim_clock=self.clock) as span:
            prefilter = PreliminaryFilter(self.filter_capacity, registry=self.telemetry)
            if filtering_fps is not None:
                prefilter.preload(filtering_fps)

            new: List[Tuple[Fingerprint, Optional[bytes], int]] = []
            for element in stream:
                fp, size = element[0], element[1]
                data = element[2] if len(element) > 2 else None
                file_index.append(fp)
                stats.logical_chunks += 1
                stats.logical_bytes += size
                if prefilter.check(fp) is FilterDecision.NEW and (
                    data is not None or not self.materialize
                    or not self._stored_without_payload(fp)
                ):
                    new.append((fp, data, size))
                    stats.transferred_chunks += 1
                    stats.transferred_bytes += size
                else:
                    stats.filtered_chunks += 1
                    stats.filtered_bytes += size
            # One append batch per session, so the new payloads are
            # checksummed in one pass (``crc32c_many``).  Every group that
            # reached the log is undetermined, even when a full disk stops
            # the batch part-way: recovery would replay it all the same.
            logged = len(self.chunk_log)
            try:
                self.chunk_log.append_many(new)
            finally:
                self._undetermined.extend(
                    fp for fp, _, _ in new[: len(self.chunk_log) - logged]
                )
            stats.undetermined_fingerprints = stats.transferred_chunks

            # Time: every fingerprint crosses the network for checking; only the
            # chunks the filter admits carry payload.  Receiving and appending to
            # the chunk log are overlapped, so the slower device gates.
            fingerprint_traffic = stats.logical_chunks * FINGERPRINT_SIZE
            net = self.rig.network.transfer_time(stats.transferred_bytes + fingerprint_traffic)
            log_write = self.rig.log_disk.append_write_time(
                stats.transferred_bytes + stats.transferred_chunks * FINGERPRINT_SIZE
            )
            self.meter.charge("dedup1.pipeline", max(net, log_write))
            self.meter.record("dedup1.network", net)
            self.meter.charge("dedup1.cpu", self.rig.cpu.filter_probe_time(stats.logical_chunks))
            span.set_io(bytes_in=stats.logical_bytes, bytes_out=stats.transferred_bytes)
            span.annotate(chunks=stats.logical_chunks, filtered=stats.filtered_chunks)
        stats.elapsed = self.clock.now - t0
        self._t_d1_sessions.inc()
        self._t_d1_logical_bytes.inc(stats.logical_bytes)
        self._t_d1_transferred_bytes.inc(stats.transferred_bytes)
        self._t_d1_chunks.inc(stats.logical_chunks)
        self._t_d1_filtered.inc(stats.filtered_chunks)
        return stats, file_index

    def _stored_without_payload(self, fp: Fingerprint) -> bool:
        """Whether an admitted chunk that reached a materialized engine
        without its payload may count as filtered: only if the index or
        checking file already holds it, else the session is refused
        (``ValueError``)."""
        if fp in self.checking or fp in self.index:
            return True
        raise ValueError(
            f"chunk {fp.hex()[:12]} was admitted as new but its payload "
            f"never arrived; session refused"
        )

    @property
    def undetermined_count(self) -> int:
        """Fingerprints awaiting dedup-2."""
        return len(self._undetermined)

    @property
    def unregistered_count(self) -> int:
        """Stored fingerprints awaiting SIU registration."""
        return len(self._unregistered)

    # ------------------------------------------------------------------ dedup-2
    def dedup2(self, force_siu: Optional[bool] = None) -> Dedup2Stats:
        """Run dedup-2 over everything accumulated since the last run.

        ``force_siu`` overrides the asynchronous-SIU policy: ``True`` always
        runs SIU at the end, ``False`` never does, ``None`` follows
        ``siu_every``.
        """
        t0 = self.clock.now
        stats = Dedup2Stats()

        with trace_span("dedup2", sim_clock=self.clock) as span:
            new_cache = self._run_sil_rounds(stats)
            self._checkpoint("post_sil")
            self._screen_against_checking(new_cache, stats)
            try:
                stored = self._chunk_storing(new_cache, stats)
            except DiskFullError as exc:
                self._abort_on_full(exc)
                raise
            self._inflight = []
            # The checking file already saw each container's batch at seal
            # time; here the stored set only joins the SIU backlog.
            self._unregistered.update(stored)
            self._checkpoint("pre_siu")

            self._dedup2_since_siu += 1
            run_siu = (
                force_siu
                if force_siu is not None
                else self._dedup2_since_siu >= self.siu_every
            )
            if run_siu and self._unregistered:
                self._run_siu(stats)
            stats.capacity_scalings = self.capacity_scalings
            span.set_io(bytes_in=stats.log_bytes_processed,
                        bytes_out=stats.new_bytes_stored)
            span.annotate(
                sil_rounds=stats.sil_rounds,
                duplicates=stats.duplicate_chunks,
                new_chunks=stats.new_chunks_stored,
                siu=stats.siu_performed,
            )
        stats.elapsed = self.clock.now - t0
        self._t_d2_runs.inc()
        self._t_d2_duplicates.inc(stats.duplicate_chunks)
        self._t_d2_new_chunks.inc(stats.new_chunks_stored)
        self._t_d2_new_bytes.inc(stats.new_bytes_stored)
        self._t_d2_log_bytes.inc(stats.log_bytes_processed)
        self._t_d2_discarded.inc(stats.log_records_discarded)
        return stats

    # -- dedup-2 internals --------------------------------------------------------
    def _abort_on_full(self, exc: DiskFullError) -> None:
        """Make an ENOSPC abort clean and resumable (Section 5.4 spirit).

        The chunk log was not cleared, so every record is still replayable.
        Chunks that *did* land in sealed containers join the checking file
        (they are stored, just unregistered); the undetermined backlog goes
        back so the next ``dedup2`` re-runs SIL, screens the partial set as
        pending duplicates, and stores only what is missing — no chunk is
        ever stored twice.
        """
        if exc.stored:
            self.checking.append(exc.stored)
            self._unregistered.update(exc.stored)
        self._undetermined = self._inflight + self._undetermined
        self._inflight = []

    def _run_sil_rounds(self, stats: Dedup2Stats) -> IndexCache:
        """SIL over the undetermined set, split into cache-sized batches."""
        merged = IndexCache(m_bits=min(20, self.index.n_bits))
        pending = self._undetermined
        self._undetermined = []
        self._inflight = pending
        sil = SequentialIndexLookup(
            self.index, cache_capacity=self.cache_capacity, registry=self.telemetry
        )
        sil_t0 = self.clock.now
        with trace_span("dedup2.sil", sim_clock=self.clock) as span:
            for start in range(0, len(pending), self.cache_capacity):
                batch = pending[start : start + self.cache_capacity]
                result = sil.run(
                    batch, meter=self.meter, disk=self.rig.index_disk, cpu=self.rig.cpu
                )
                stats.sil_rounds += 1
                stats.duplicate_chunks += len(result.duplicates)
                for fp, _ in result.new_cache.items():
                    if not merged.insert(fp):
                        # A fingerprint split across two SIL rounds is "new" in
                        # both; the merge resolves the later sighting as a
                        # duplicate so the stats agree with the chunk-log
                        # replay, which stores it once and discards the rest.
                        stats.duplicate_chunks += 1
            span.annotate(rounds=stats.sil_rounds, fingerprints=len(pending))
        stats.sil_time = self.clock.now - sil_t0
        return merged

    def _screen_against_checking(self, cache: IndexCache, stats: Dedup2Stats) -> None:
        """Remove fingerprints already stored but not yet SIU-registered."""
        new_fps = [fp for fp, _ in cache.items()]
        _, already_pending = self.checking.screen(new_fps)
        for fp in already_pending:
            cache.remove(fp)
            stats.duplicate_chunks += 1

    def _chunk_storing(self, cache: IndexCache, stats: Dedup2Stats) -> Dict[Fingerprint, int]:
        """Replay the chunk log, packing new chunks into SISL containers.

        Returns the unregistered fingerprint file: fp -> container ID for
        every chunk stored this round.
        """
        t0 = self.clock.now
        writer = ContainerWriter(self.container_bytes, materialize=self.materialize)
        pending_fps: List[Fingerprint] = []
        stored: Dict[Fingerprint, int] = {}
        new_bytes = 0

        def seal_current() -> None:
            nonlocal writer
            if not len(writer):
                return
            try:
                container = self.container_manager.store(writer, affinity=self.affinity)
            except DiskFullError as exc:
                # Report what landed before the disk filled so the abort
                # handler can mark it stored-but-unregistered.
                exc.stored = dict(stored)
                raise
            sealed = {fp: container.container_id for fp in pending_fps}
            for fp in pending_fps:
                cache.set_container(fp, container.container_id)
                stored[fp] = container.container_id
            # Close the Section 5.4 window at the earliest possible moment:
            # the checking file learns about these chunks as soon as their
            # container is durable, so a crash between this seal and SIU
            # cannot lead the recovery replay to store them a second time.
            self.checking.append(sealed)
            pending_fps.clear()
            stats.containers_written += 1
            writer = ContainerWriter(self.container_bytes, materialize=self.materialize)
            self._checkpoint("container_sealed")

        with trace_span("dedup2.store", sim_clock=self.clock) as span:
            for record in self.chunk_log.replay():
                stats.log_chunks_processed += 1
                stats.log_bytes_processed += record.log_bytes
                if record.fingerprint not in cache:
                    stats.log_records_discarded += 1
                    continue
                cid = cache.get(record.fingerprint)
                if cid is not None:
                    # PENDING or already sealed: a later copy of a chunk stored
                    # this round — discard (Section 5.3's "otherwise discards").
                    stats.log_records_discarded += 1
                    continue
                if not writer.fits(record.size):
                    seal_current()
                if not writer.add(
                    record.fingerprint, data=record.data, size=record.size, crc=record.crc
                ):
                    raise ValueError(
                        f"chunk of {record.size} bytes cannot fit an empty "
                        f"{self.container_bytes}-byte container"
                    )
                cache.set_container(record.fingerprint, PENDING_CONTAINER)
                pending_fps.append(record.fingerprint)
                stats.new_chunks_stored += 1
                new_bytes += record.size
            seal_current()
            stats.new_bytes_stored = new_bytes

            # Sequential log replay overlapped with container appends: the
            # slower stream gates (log read dominates at equal rates since the
            # log carries duplicates the containers do not).
            log_read = self.rig.log_disk.seq_read_time(stats.log_bytes_processed)
            container_write = self.rig.repository_disk.append_write_time(
                stats.containers_written * self.container_bytes
            )
            self.meter.charge("store.pipeline", max(log_read, container_write))
            self.chunk_log.clear()
            span.set_io(bytes_in=stats.log_bytes_processed, bytes_out=stats.new_bytes_stored)
            span.annotate(containers=stats.containers_written,
                          discarded=stats.log_records_discarded)
        stats.storing_time = self.clock.now - t0
        return stored

    def _run_siu(self, stats: Dedup2Stats) -> None:
        """SIU over the accumulated unregistered fingerprints, scaling the
        index capacity and retrying on overflow."""
        t0 = self.clock.now
        # Skip entries already registered: a crashed SIU attempt may have
        # landed part of the unregistered file before overflowing (the
        # per-bucket writes are not transactional), and re-registering
        # those on retry would duplicate their index entries.
        entries = {
            fp: cid
            for fp, cid in self._unregistered.items()
            if self.index.lookup(fp) is None
        }
        with trace_span("dedup2.siu", sim_clock=self.clock) as span:
            while True:
                try:
                    SequentialIndexUpdate(self.index, registry=self.telemetry).run(
                        entries, meter=self.meter, disk=self.rig.index_disk, cpu=self.rig.cpu
                    )
                    break
                except IndexFullError:
                    self._scale_index_capacity()
                    # Retry only what did not land before the overflow.
                    entries = {
                        fp: cid for fp, cid in entries.items() if self.index.lookup(fp) is None
                    }
            span.annotate(registered=len(self._unregistered))
        self.checking.registered(self._unregistered)
        self._unregistered.clear()
        self._dedup2_since_siu = 0
        stats.siu_performed = True
        stats.siu_time = self.clock.now - t0
        self._checkpoint("post_siu")

    def _scale_index_capacity(self) -> None:
        """Capacity scaling (Section 4.1): double the bucket count.

        Charged as one sequential read of the old index plus one sequential
        write of the new, which is what the bucket-copying procedure costs.
        ``scale_capacity`` keeps the backing store kind (a file-backed
        index stays file-backed) and announces each migrated bucket to the
        fault-injection hook.
        """
        old = self.index
        self.meter.charge("scale.read", self.rig.index_disk.seq_read_time(old.size_bytes))
        self.index = old.scale_capacity(
            checkpoint=lambda k: self._checkpoint("scale_bucket")
        )
        self.meter.charge(
            "scale.write", self.rig.index_disk.seq_write_time(self.index.size_bytes)
        )
        self.capacity_scalings += 1

    # ---------------------------------------------------------- cluster hooks
    # PSIL/PSIU (Section 5.2's parallel variants) run the same SIL, chunk
    # storing and SIU machinery but interleave fingerprint exchanges between
    # servers; these entry points expose the individual steps to
    # :class:`repro.system.cluster.DebarCluster`.

    def drain_undetermined(self) -> List[Fingerprint]:
        """Take (and clear) the undetermined fingerprint backlog."""
        fps = self._undetermined
        self._undetermined = []
        return fps

    def store_from_log(
        self, new_fps: Iterable[Fingerprint]
    ) -> Tuple[Dict[Fingerprint, int], Dedup2Stats]:
        """Chunk storing for an externally computed set of new fingerprints.

        In PSIL the lookup happened on the owning servers; this server then
        replays its own chunk log keeping exactly ``new_fps``.  Returns the
        (fingerprint -> container ID) pairs stored plus storing stats.
        """
        stats = Dedup2Stats()
        cache = IndexCache(m_bits=min(20, self.index.n_bits))
        for fp in new_fps:
            cache.insert(fp)
        stored = self._chunk_storing(cache, stats)
        return stored, stats

    def accept_unregistered(self, entries: Dict[Fingerprint, int]) -> None:
        """Receive stored-elsewhere entries this server's index part owns:
        they join the checking file and await the next SIU."""
        self.checking.append(entries)
        self._unregistered.update(entries)

    def run_siu_now(self) -> Dedup2Stats:
        """Run SIU immediately over the accumulated unregistered entries."""
        stats = Dedup2Stats()
        if self._unregistered:
            self._run_siu(stats)
        return stats

    # ------------------------------------------------------------------ queries
    def physical_chunk_bytes(self) -> int:
        """Payload bytes stored across the repository."""
        return self.repository.stored_chunk_bytes
