"""Multi-server DEBAR: PSIL and PSIU across ``2^w`` backup servers
(Sections 2, 5.2 and Figure 5).

The disk index is divided into ``2^w`` parts by fingerprint prefix, one per
backup server.  A cluster dedup-2 proceeds in barriered phases:

1. **Partition & exchange** — every server splits its undetermined
   fingerprints by their first ``w`` bits and the servers all-to-all
   exchange subsets, so server ``k`` ends up with exactly the fingerprints
   its index part owns.
2. **PSIL** — all servers run SIL on their local parts concurrently.  The
   owner also arbitrates cross-stream duplicates *within* the round: when
   several servers submit the same new fingerprint, exactly one (the lowest
   requester) is assigned to store the chunk; the rest discard their
   copies.  Results are exchanged back.
3. **Chunk storing** — each server replays its own chunk log, packing the
   chunks it was assigned into containers placed with its affinity, then
   routes the resulting (fingerprint, container ID) pairs to the owning
   servers, whose checking files absorb them.
4. **PSIU** (per the asynchronous-SIU policy) — all owners merge their
   unregistered entries into their index parts concurrently.

Each server has its own simulated clock lane; a barrier after each phase
synchronises lanes to the slowest server, and phase wall time is the lane
delta across the barrier — which is how aggregate PSIL/PSIU speeds
(Figure 13) and cluster write/read throughputs (Figures 14-15) are defined.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.fingerprint import FINGERPRINT_SIZE, Fingerprint
from repro.core.sil import SequentialIndexLookup
from repro.core.tpds import Dedup1Stats, StreamChunk
from repro.director.director import Director
from repro.director.jobs import JobObject
from repro.director.scheduler import Dedup2Policy
from repro.server.backup_server import BackupServer, BackupServerConfig, stream_file
from repro.simdisk import NetworkModel, paper_network
from repro.simdisk.clock import barrier
from repro.telemetry.registry import MetricsRegistry, get_registry
from repro.telemetry.tracing import trace_span
from repro.util import bit_prefix
from repro.storage.reader import ChunkReader
from repro.storage.repository import ChunkRepository

#: Wire size of one (fingerprint, container ID) result record.
_RESULT_RECORD = FINGERPRINT_SIZE + 5


class _LaneClock:
    """Presents the cluster's latest lane as a single ``.now`` clock, so
    phase spans report cluster wall time (the barrier semantics)."""

    __slots__ = ("_lanes",)

    def __init__(self, lanes) -> None:
        self._lanes = lanes

    @property
    def now(self) -> float:
        return max(lane.now for lane in self._lanes)


@dataclass
class ClusterBackupStats:
    """One round of parallel dedup-1 across the cluster."""

    logical_bytes: int = 0
    transferred_bytes: int = 0
    logical_chunks: int = 0
    wall_time: float = 0.0
    per_server: List[Dedup1Stats] = field(default_factory=list)

    @property
    def aggregate_throughput(self) -> float:
        """Logical bytes over the slowest server's elapsed time."""
        return self.logical_bytes / self.wall_time if self.wall_time else float("inf")


@dataclass
class ClusterDedup2Stats:
    """One cluster-wide dedup-2: PSIL + chunk storing + (optional) PSIU."""

    fingerprints_looked_up: int = 0
    fingerprints_updated: int = 0
    new_chunks_stored: int = 0
    duplicate_chunks: int = 0
    log_bytes_processed: int = 0
    new_bytes_stored: int = 0
    containers_written: int = 0
    exchange_bytes: int = 0
    psil_wall_time: float = 0.0
    storing_wall_time: float = 0.0
    psiu_wall_time: float = 0.0
    wall_time: float = 0.0
    psiu_performed: bool = False

    @property
    def psil_speed(self) -> float:
        """Aggregate PSIL fingerprints per second (Figure 13's metric)."""
        return self.fingerprints_looked_up / self.psil_wall_time if self.psil_wall_time else float("inf")

    @property
    def psiu_speed(self) -> float:
        """Aggregate PSIU fingerprints per second (Figure 13's metric)."""
        return self.fingerprints_updated / self.psiu_wall_time if self.psiu_wall_time else float("inf")


class DebarCluster:
    """A director plus ``2^w`` backup servers over a shared chunk repository."""

    def __init__(
        self,
        w_bits: int,
        config: Optional[BackupServerConfig] = None,
        policy: Optional[Dedup2Policy] = None,
        network: Optional[NetworkModel] = None,
        repository_nodes: Optional[int] = None,
        telemetry: Optional[MetricsRegistry] = None,
    ) -> None:
        if w_bits < 0:
            raise ValueError("w_bits must be non-negative")
        self.w_bits = w_bits
        self.n_servers = 1 << w_bits
        self.config = config if config is not None else BackupServerConfig()
        if self.w_bits and self.config.index_n_bits < 1:
            raise ValueError("index parts need at least one bucket bit")
        self.network = network if network is not None else paper_network()
        self.repository = ChunkRepository(
            repository_nodes if repository_nodes is not None else self.n_servers
        )
        if policy is None:
            policy = Dedup2Policy(undetermined_threshold=self.config.cache_capacity)
        self.director = Director(n_servers=self.n_servers, policy=policy)
        self.servers = [
            BackupServer(k, self.repository, config=self.config, w_bits=w_bits)
            for k in range(self.n_servers)
        ]
        self._rounds_since_psiu = 0
        self._engines = {}
        self._bind_instruments(telemetry)

    def _bind_instruments(self, registry: Optional[MetricsRegistry]) -> None:
        """Bind per-server exchange/phase counters (no-ops when disabled)."""
        self.telemetry = registry if registry is not None else get_registry()
        sent = self.telemetry.counter(
            "cluster.exchange.bytes_sent",
            "fingerprint-exchange bytes sent, per backup server",
        )
        received = self.telemetry.counter(
            "cluster.exchange.bytes_received",
            "fingerprint-exchange bytes received, per backup server",
        )
        self._t_sent = [sent.labels(server=str(k)) for k in range(self.n_servers)]
        self._t_received = [
            received.labels(server=str(k)) for k in range(self.n_servers)
        ]
        self._t_psil_fps = self.telemetry.counter(
            "cluster.psil.fingerprints", "fingerprints looked up by PSIL rounds"
        ).labels()
        self._t_psiu_fps = self.telemetry.counter(
            "cluster.psiu.fingerprints", "fingerprints registered by PSIU rounds"
        ).labels()
        self._t_rounds = self.telemetry.counter(
            "cluster.dedup2.rounds", "cluster-wide dedup-2 rounds completed"
        ).labels()

    # -- routing helpers ----------------------------------------------------------
    def owner_of(self, fp: Fingerprint) -> int:
        """The server whose index part owns a fingerprint (first w bits)."""
        if self.w_bits == 0:
            return 0
        return bit_prefix(fp, self.w_bits)

    def _lanes(self):
        return [s.clock for s in self.servers]

    # ------------------------------------------------------------------ dedup-1
    def backup_streams(
        self,
        assignments: Sequence[Tuple[JobObject, Iterable[StreamChunk]]],
        timestamp: float = 0.0,
    ) -> ClusterBackupStats:
        """Run one round of parallel dedup-1.

        Each (job, stream) pair is routed to the job's (sticky,
        load-balanced) backup server; servers work on their own clock lanes
        and a barrier closes the round.
        """
        return self._backup_round(
            (
                (job, [stream_file(f"{job.name}@{timestamp}", stream)])
                for job, stream in assignments
            ),
            timestamp,
        )

    def backup_datasets(
        self,
        jobs: Sequence[JobObject],
        timestamp: float = 0.0,
    ) -> ClusterBackupStats:
        """File-mode parallel dedup-1: read each job's dataset from disk.

        Each job's client engine chunks its files with CDC; sessions run on
        the jobs' (sticky) backup servers.  Requires
        ``config.materialize=True`` so payloads are stored for restore.
        """
        return self._backup_round(
            ((job, self._engine(job.client).iter_stream(job.dataset)) for job in jobs),
            timestamp,
        )

    def _backup_round(self, assignments, timestamp: float) -> ClusterBackupStats:
        stats = ClusterBackupStats()
        t0 = max(lane.now for lane in self._lanes())
        for job, files in assignments:
            server_id = self.director.assign_backup(job)
            run = self.director.begin_run(job, timestamp, server_id)
            filtering = self.director.filtering_fingerprints(job)
            d1, entries = self.servers[server_id].backup(files, filtering)
            self.director.complete_run(run, entries, d1)
            stats.per_server.append(d1)
            stats.logical_bytes += d1.logical_bytes
            stats.transferred_bytes += d1.transferred_bytes
            stats.logical_chunks += d1.logical_chunks
        barrier(self._lanes())
        stats.wall_time = max(lane.now for lane in self._lanes()) - t0
        return stats

    def restore_run_files(self, run_id: int, dest_dir, strip_prefix="/"):
        """File-mode restore of a run into ``dest_dir`` (materialized data)."""
        run = self.director.find_run(run_id)
        if run is None:
            raise KeyError(f"no run {run_id} recorded")
        engine = self._engine(run.job.client)
        entries = self.director.metadata.files_for_run(run_id)
        via = run.server or 0
        source = SimpleNamespace(read_chunk=partial(self.read_chunk, via_server=via))
        reader = ChunkReader([(f"server {via}", source)], registry=self.telemetry)
        return engine.restore_run(entries, reader, dest_dir, strip_prefix)

    def _engine(self, client: str):
        from repro.client.backup_client import BackupEngine

        if client not in self._engines:
            self._engines[client] = BackupEngine(client)
        return self._engines[client]

    def should_run_dedup2(self) -> bool:
        """The director's trigger over per-server backlogs."""
        return self.director.should_run_dedup2(
            [s.undetermined_count for s in self.servers],
            [s.chunk_log_bytes for s in self.servers],
        )

    # ------------------------------------------------------------------ dedup-2
    def run_dedup2(self, force_psiu: Optional[bool] = None) -> ClusterDedup2Stats:
        """One cluster-wide dedup-2 (the barriered phases described above)."""
        stats = ClusterDedup2Stats()
        lanes = self._lanes()
        lane_clock = _LaneClock(lanes)
        round_t0 = barrier(lanes)
        with trace_span(
            "cluster.dedup2", sim_clock=lane_clock, servers=self.n_servers
        ) as round_span:
            stats = self._run_dedup2_phases(stats, lanes, lane_clock, force_psiu)
            round_span.annotate(
                psil_fingerprints=stats.fingerprints_looked_up,
                psiu_fingerprints=stats.fingerprints_updated,
                exchange_bytes=stats.exchange_bytes,
            )
        stats.wall_time = max(lane.now for lane in lanes) - round_t0
        self._t_rounds.inc()
        self._t_psil_fps.inc(stats.fingerprints_looked_up)
        self._t_psiu_fps.inc(stats.fingerprints_updated)
        self.director.record_dedup2()
        return stats

    def _run_dedup2_phases(
        self,
        stats: ClusterDedup2Stats,
        lanes,
        lane_clock: "_LaneClock",
        force_psiu: Optional[bool],
    ) -> ClusterDedup2Stats:
        """The four barriered phases of one cluster-wide dedup-2."""
        # -- Phase 1: partition undetermined fingerprints and exchange.
        with trace_span("cluster.exchange.partition", sim_clock=lane_clock):
            outgoing: List[Dict[int, List[Fingerprint]]] = []
            for server in self.servers:
                parts: Dict[int, List[Fingerprint]] = defaultdict(list)
                for fp in server.tpds.drain_undetermined():
                    parts[self.owner_of(fp)].append(fp)
                outgoing.append(parts)
            self._charge_exchange(
                stats,
                sent=[
                    sum(len(v) for k, v in parts.items() if k != j) * FINGERPRINT_SIZE
                    for j, parts in enumerate(outgoing)
                ],
                received=[
                    sum(
                        len(outgoing[j].get(k, ()))
                        for j in range(self.n_servers)
                        if j != k
                    )
                    * FINGERPRINT_SIZE
                    for k in range(self.n_servers)
                ],
            )
            # delivered[k][j] = fingerprints server k received from server j.
            delivered = [
                {j: parts[k] for j, parts in enumerate(outgoing) if parts.get(k)}
                for k in range(self.n_servers)
            ]
            barrier(lanes)

        # -- Phase 2: PSIL on every index part concurrently.
        psil_t0 = max(lane.now for lane in lanes)
        with trace_span("cluster.psil", sim_clock=lane_clock) as psil_span:
            # owner -> fp -> sorted list of requesting servers
            requests: List[Dict[Fingerprint, List[int]]] = [dict() for _ in self.servers]
            for owner in range(self.n_servers):
                table = requests[owner]
                for j in sorted(delivered[owner]):
                    for fp in delivered[owner][j]:
                        reqs = table.setdefault(fp, [])
                        if j not in reqs:
                            reqs.append(j)
            # per-origin decisions: fp -> ("dup", cid) | ("store",) | ("skip",)
            decisions: List[Dict[Fingerprint, Tuple] ] = [dict() for _ in self.servers]
            for k, server in enumerate(self.servers):
                table = requests[k]
                if not table:
                    continue
                sil = SequentialIndexLookup(
                    server.index,
                    cache_capacity=self.config.cache_capacity,
                    registry=self.telemetry,
                )
                # An owner may receive more than one cache-full; like the
                # single-server path, each SIL round sweeps at most a cache of
                # fingerprints (Section 5.2's "synchronous lookups" batching).
                pending = list(table.keys())
                duplicates: Dict[Fingerprint, int] = {}
                new_fps: List[Fingerprint] = []
                for start in range(0, len(pending), self.config.cache_capacity):
                    batch = pending[start : start + self.config.cache_capacity]
                    result = sil.run(
                        batch,
                        meter=server.meter,
                        disk=server.rig.index_disk,
                        cpu=server.rig.cpu,
                    )
                    stats.fingerprints_looked_up += result.fingerprints_distinct
                    duplicates.update(result.duplicates)
                    new_fps.extend(fp for fp, _ in result.new_cache.items())
                genuinely_new, already_pending = server.tpds.checking.screen(new_fps)
                for fp, requesters in table.items():
                    if fp in duplicates:
                        for j in requesters:
                            decisions[j][fp] = ("dup", duplicates[fp])
                    elif fp in already_pending:
                        for j in requesters:
                            decisions[j][fp] = ("dup", already_pending[fp])
                for fp in genuinely_new:
                    requesters = sorted(table[fp])
                    decisions[requesters[0]][fp] = ("store",)
                    for j in requesters[1:]:
                        decisions[j][fp] = ("skip",)
            barrier(lanes)
            psil_span.annotate(fingerprints=stats.fingerprints_looked_up)
        stats.psil_wall_time = max(lane.now for lane in lanes) - psil_t0

        # Result exchange back to the requesting servers.
        with trace_span("cluster.exchange.results", sim_clock=lane_clock):
            self._charge_exchange(
                stats,
                sent=[
                    sum(
                        sum(1 for j in reqs if j != k) * _RESULT_RECORD
                        for reqs in requests[k].values()
                    )
                    for k in range(self.n_servers)
                ],
                received=[
                    sum(
                        _RESULT_RECORD
                        for fp, decision in decisions[j].items()
                        if self.owner_of(fp) != j
                    )
                    for j in range(self.n_servers)
                ],
            )
            barrier(lanes)

        # -- Phase 3: chunk storing on every server, in parallel.
        storing_t0 = max(lane.now for lane in lanes)
        with trace_span("cluster.store", sim_clock=lane_clock) as store_span:
            stored_by_origin: List[Dict[Fingerprint, int]] = [dict() for _ in self.servers]
            stored_by_owner: List[Dict[Fingerprint, int]] = [dict() for _ in self.servers]
            for j, server in enumerate(self.servers):
                to_store = [fp for fp, d in decisions[j].items() if d[0] == "store"]
                stats.duplicate_chunks += sum(1 for d in decisions[j].values() if d[0] != "store")
                stored, s_stats = server.tpds.store_from_log(to_store)
                stored_by_origin[j] = stored
                stats.new_chunks_stored += s_stats.new_chunks_stored
                stats.new_bytes_stored += s_stats.new_bytes_stored
                stats.log_bytes_processed += s_stats.log_bytes_processed
                stats.containers_written += s_stats.containers_written
            for j in range(self.n_servers):
                for fp, cid in stored_by_origin[j].items():
                    stored_by_owner[self.owner_of(fp)][fp] = cid
            barrier(lanes)
            store_span.set_io(bytes_in=stats.log_bytes_processed,
                              bytes_out=stats.new_bytes_stored)
            store_span.annotate(containers=stats.containers_written)
        stats.storing_wall_time = max(lane.now for lane in lanes) - storing_t0

        # Route stored entries to their owning servers' checking files.
        with trace_span("cluster.exchange.stored", sim_clock=lane_clock):
            self._charge_exchange(
                stats,
                sent=[
                    sum(
                        _RESULT_RECORD
                        for fp in stored_by_origin[j]
                        if self.owner_of(fp) != j
                    )
                    for j in range(self.n_servers)
                ],
                received=[
                    sum(
                        _RESULT_RECORD
                        for fp in stored_by_owner[k]
                        if self.owner_of(fp) == k and fp not in stored_by_origin[k]
                    )
                    for k in range(self.n_servers)
                ],
            )
            for k, entries in enumerate(stored_by_owner):
                if entries:
                    self.servers[k].tpds.accept_unregistered(entries)
            barrier(lanes)

        # -- Phase 4: PSIU per the asynchronous policy (one PSIU may service
        # several PSILs, Section 5.4).
        self._rounds_since_psiu += 1
        run_psiu = (
            force_psiu
            if force_psiu is not None
            else self._rounds_since_psiu >= self.config.siu_every
            and any(s.tpds.unregistered_count for s in self.servers)
        )
        if run_psiu:
            psiu_t0 = max(lane.now for lane in lanes)
            with trace_span("cluster.psiu", sim_clock=lane_clock) as psiu_span:
                for server in self.servers:
                    pending = server.tpds.unregistered_count
                    if pending:
                        server.tpds.run_siu_now()
                        stats.fingerprints_updated += pending
                barrier(lanes)
                psiu_span.annotate(fingerprints=stats.fingerprints_updated)
            stats.psiu_wall_time = max(lane.now for lane in lanes) - psiu_t0
            stats.psiu_performed = stats.fingerprints_updated > 0
            if stats.psiu_performed:
                self._rounds_since_psiu = 0

        return stats

    def _charge_exchange(
        self, stats: ClusterDedup2Stats, sent: Sequence[float], received: Sequence[float]
    ) -> None:
        """Charge an all-to-all exchange: each lane pays for the larger of
        its send and receive volumes at its NIC rate."""
        for k, (server, s_bytes, r_bytes) in enumerate(
            zip(self.servers, sent, received)
        ):
            t = self.network.exchange_time(s_bytes, r_bytes)
            if t:
                server.meter.charge("exchange.network", t)
            stats.exchange_bytes += int(s_bytes)
            self._t_sent[k].inc(int(s_bytes))
            self._t_received[k].inc(int(r_bytes))

    # ------------------------------------------------------------------ scaling
    def scale_out(self, keep_part_size: bool = False) -> "DebarCluster":
        """Performance scaling: double the server count (Section 4.1).

        This is how the paper's Section 6.2 experiment moves between run
        modes, e.g. (4, 64) -> (8, 64): each server's index part splits
        into two by one more prefix bit, and each half moves to its own
        (new) backup server.  The chunk repository is shared and untouched
        — "such simple scaling schemes do not need to change and scan the
        chunk repository".  Job chains and metadata carry over, so the
        preliminary filter keeps its history across the transition.

        ``keep_part_size=True`` additionally capacity-scales each half back
        to the original per-server index size (the paper's (x, y) ->
        (2x, y) transitions); the default leaves halves at half size
        ((x, y) -> (2x, y/2)).

        Requires a quiesced cluster: no undetermined fingerprints, empty
        chunk logs, and no stored-but-unregistered entries (run
        ``run_dedup2(force_psiu=True)`` first).  Returns the new cluster;
        the old object must not be used afterwards.
        """
        for server in self.servers:
            if server.undetermined_count or server.tpds.chunk_log:
                raise RuntimeError(
                    f"server {server.server_id} has pending dedup-2 work; "
                    "run run_dedup2(force_psiu=True) before scaling out"
                )
            if server.tpds.unregistered_count:
                raise RuntimeError(
                    f"server {server.server_id} has unregistered fingerprints; "
                    "run run_dedup2(force_psiu=True) before scaling out"
                )
        new = DebarCluster.__new__(DebarCluster)
        new.w_bits = self.w_bits + 1
        new.n_servers = self.n_servers * 2
        new.config = self.config
        new.network = self.network
        new.repository = self.repository
        new.director = Director(n_servers=new.n_servers, policy=self.director.policy)
        # Carry job chains and metadata over; jobs re-balance onto the
        # doubled server set on their next run.
        new.director.metadata = self.director.metadata
        new.director._jobs = self.director._jobs
        new.director._chains = self.director._chains
        new.director.dedup2_runs = self.director.dedup2_runs
        new._rounds_since_psiu = 0
        new._engines = self._engines
        new._bind_instruments(self.telemetry)
        new.servers = []
        for server in self.servers:
            halves = server.index.split(1)
            for half_no, half in enumerate(halves):
                if keep_part_size:
                    half = half.scale_capacity()
                server_id = (server.server_id << 1) | half_no
                new.servers.append(
                    BackupServer(
                        server_id,
                        new.repository,
                        config=self.config,
                        index=half,
                        w_bits=new.w_bits,
                    )
                )
        # Lanes resume from the barrier point the old cluster reached.
        t = self.wall_clock
        for server in new.servers:
            server.clock.advance_to(t)
        return new

    # ------------------------------------------------------------------ restore
    def read_chunk(self, fp: Fingerprint, via_server: int) -> bytes:
        """Read one chunk through a given server (the client's server).

        Cache miss costs: a random index probe (remote if another server's
        part owns the fingerprint, adding an exchange round-trip) plus a
        container read (remote if the container lives on another
        repository node, adding a container-sized transfer).
        """
        server = self.servers[via_server]
        store = server.chunk_store
        container = store.lpc.lookup(fp)
        if container is None:
            owner = self.owner_of(fp)
            owner_server = self.servers[owner]
            cid, probes = owner_server.index.lookup_with_probes(fp)
            if cid is None:
                cid = owner_server.tpds.checking.get(fp)
                if cid is None:
                    raise KeyError(f"fingerprint {fp.hex()[:12]} not stored")
            server.meter.charge(
                "restore.index_random", server.rig.index_disk.random_read_time(probes)
            )
            if owner != via_server:
                server.meter.charge(
                    "restore.remote_lookup",
                    self.network.transfer_time(_RESULT_RECORD, messages=1),
                )
            container = server.tpds.container_manager.fetch(cid)
            node = self.repository.locate(cid)
            server.meter.charge(
                "restore.container_read",
                server.rig.repository_disk.seq_read_time(container.capacity),
            )
            if node != via_server % len(self.repository.nodes):
                server.meter.charge(
                    "restore.remote_container",
                    self.network.transfer_time(container.capacity),
                )
            store.lpc.insert_container(container)
        return container.get(fp)

    def restore_run(self, run_id: int, via_server: Optional[int] = None) -> List[bytes]:
        """Restore every chunk of a recorded run through a server.

        Defaults to the server that performed the backup (where the LPC
        and repository affinity favour the read); returns payloads in
        file-index order.
        """
        server_id = via_server
        if server_id is None:
            run = self.director.find_run(run_id)
            if run is None:
                raise KeyError(f"no run {run_id} recorded")
            server_id = run.server or 0
        payloads: List[bytes] = []
        for entry in self.director.metadata.files_for_run(run_id):
            for fp in entry.fingerprints:
                payloads.append(self.read_chunk(fp, via_server=server_id))
        return payloads

    # ------------------------------------------------------------------ defrag
    def resolve_container(self, fp: Fingerprint) -> Optional[int]:
        """Locate a fingerprint's container via its owning index part."""
        owner = self.servers[self.owner_of(fp)]
        cid = owner.index.lookup(fp)
        if cid is None:
            cid = owner.tpds.checking.get(fp)
        return cid

    def defragment_run(
        self,
        run_id: int,
        threshold: float = 0.25,
        force: bool = False,
        target_node: Optional[int] = None,
    ):
        """Aggregate one backup run's containers (Section 6.3).

        Looks up the run's file indices at the director, resolves the
        containers through the owning index parts, and moves stragglers to
        the repository node local to the server that backs (and restores)
        this job — that is where read locality pays — charging the move
        time to that server's lane.  Pass ``target_node`` to override.
        """
        from repro.storage.defrag import DefragmentationManager

        fps = []
        located = self.director.find_run(run_id)
        run_server = (located.server or 0) if located is not None else 0
        for entry in self.director.metadata.files_for_run(run_id):
            fps.extend(entry.fingerprints)
        manager = DefragmentationManager(self.repository, threshold=threshold)
        target = (
            target_node
            if target_node is not None
            else run_server % len(self.repository.nodes)
        )
        lane_server = self.servers[target % self.n_servers]
        return manager.run(
            fps,
            self.resolve_container,
            target_node=target,
            meter=lane_server.meter,
            disk=lane_server.rig.repository_disk,
            network=self.network,
            force=force,
        )

    # ------------------------------------------------------------------ audit
    def audit(self, deep: bool = False):
        """Consistency sweep over every index part and the shared repository.

        Each part is checked against the placement/overflow invariants and
        its prefix ownership; cross-references and run restorability route
        through the owning servers, exactly as PSIL/restore would.  Tests
        run this after every PSIL/PSIU round (see :mod:`repro.audit`).
        """
        from repro.audit import audit_cluster

        return audit_cluster(self, deep=deep)

    # ------------------------------------------------------------------ accounting
    @property
    def total_index_bytes(self) -> int:
        """Combined size of all index parts."""
        return sum(s.index.size_bytes for s in self.servers)

    @property
    def physical_bytes_stored(self) -> int:
        return self.repository.stored_chunk_bytes

    @property
    def wall_clock(self) -> float:
        """Cluster wall time: the latest lane."""
        return max(lane.now for lane in self._lanes())
