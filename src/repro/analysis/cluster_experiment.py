"""The Section 6.2 multi-server experiments (Figures 13, 14, 15).

Scaling strategy: throughput and PSIL/PSIU speed are ratios of *volumes*
to *device times*, and both scale together.  We shrink every volume —
index part size, index-cache fingerprints, version sizes — by one factor
``sigma`` (default 1/2048) while the device models stay paper-calibrated,
so aggregate speeds and throughputs come out at paper magnitude.  The only
non-scaling terms are fixed positioning/RTT latencies, which contribute a
few percent at this sigma (and zero at sigma = 1).

The paper's setup being reproduced: ``2^w`` backup servers, each with a
1 GB index cache and an index *part* of 32–512 GB; 4 backup clients per
server; synthetic fingerprint streams of 10 x 50 GB versions per client
with ~90 % duplicates of which ~30 points are cross-stream (Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.index_cache import FINGERPRINTS_PER_GB
from repro.director.scheduler import Dedup2Policy
from repro.server import BackupServerConfig
from repro.system import DebarCluster
from repro.util import GB, KB, MB
from repro.workloads import SyntheticConfig, SyntheticUniverse

#: Default volume scale: 1/2048 of the paper's byte volumes.
SIGMA = 1.0 / 2048

#: The paper's per-server index cache (1 GB ~ 44 M fingerprints).
CACHE_FPS_PAPER = FINGERPRINTS_PER_GB

#: The paper's per-client version size: 50 GB of 8 KB chunks.
VERSION_CHUNKS_PAPER = 50 * GB // (8 * KB)


def scaled_cluster(
    w_bits: int,
    part_modeled_bytes: float,
    sigma: float = SIGMA,
    container_bytes: int = 8 * MB,
    bucket_bytes: int = 512,
    lpc_containers: int = 64,
) -> DebarCluster:
    """A cluster whose per-server geometry is ``sigma`` times the paper's."""
    if sigma <= 0 or sigma > 1:
        raise ValueError("sigma must be in (0, 1]")
    part_bytes = int(part_modeled_bytes * sigma)
    n_buckets = max(4, part_bytes // bucket_bytes)
    n_bits = max(2, (n_buckets - 1).bit_length())
    cache_fps = max(256, int(CACHE_FPS_PAPER * sigma))
    config = BackupServerConfig(
        index_n_bits=n_bits,
        index_bucket_bytes=bucket_bytes,
        container_bytes=container_bytes,
        filter_capacity=max(1024, 4 * cache_fps),
        cache_capacity=cache_fps,
        lpc_containers=lpc_containers,
        siu_every=2,
        materialize=False,
    )
    return DebarCluster(
        w_bits=w_bits,
        config=config,
        policy=Dedup2Policy(undetermined_threshold=cache_fps),
    )


# ---------------------------------------------------------------- Figure 13
@dataclass
class PsilPsiuPoint:
    """One Figure 13 point: speeds at a given total index size."""

    total_index_modeled_bytes: float
    psil_kfps: float
    psiu_kfps: float
    fingerprints: int


def measure_psil_psiu(
    part_modeled_bytes: float,
    w_bits: int = 4,
    sigma: float = SIGMA,
    sweep_fraction: float = 0.9,
) -> PsilPsiuPoint:
    """Measure aggregate PSIL/PSIU speed with full index-cache sweeps.

    Every server receives ~one cache-full of fresh fingerprints — the
    regime the paper measures (efficiency = fingerprints per sweep over
    sweep time).  ``sweep_fraction`` leaves headroom so that the binomial
    spread of the prefix exchange does not push any owner past one
    cache-full, which would force a second sweep and halve the speed.
    Then the cluster runs one dedup-2 with PSIU forced.
    """
    cluster = scaled_cluster(w_bits, part_modeled_bytes, sigma)
    per_server = max(64, int(cluster.config.cache_capacity * sweep_fraction))
    universe = SyntheticUniverse(
        SyntheticConfig(n_streams=cluster.n_servers, dup_fraction=0.0, cross_fraction=0.0)
    )
    assignments = []
    for k in range(cluster.n_servers):
        job = cluster.director.define_job(f"sweep-{k}", f"client-{k}", [])
        sections = universe.next_version(k, per_server)
        assignments.append((job, list(universe.version_stream(sections))))
    cluster.backup_streams(assignments)
    stats = cluster.run_dedup2(force_psiu=True)
    return PsilPsiuPoint(
        total_index_modeled_bytes=part_modeled_bytes * cluster.n_servers,
        psil_kfps=stats.psil_speed / 1e3,
        psiu_kfps=stats.psiu_speed / 1e3,
        fingerprints=stats.fingerprints_looked_up,
    )


# ------------------------------------------------------------- Figures 14/15
@dataclass
class WriteExperimentResult:
    """One (servers, part size) mode of the write experiments."""

    w_bits: int
    n_servers: int
    part_modeled_bytes: float
    logical_bytes: int = 0
    dedup1_wall: float = 0.0
    dedup2_wall: float = 0.0
    dedup2_log_bytes: int = 0
    version_streams: List[List[Tuple[bytes, int]]] = field(default_factory=list, repr=False)
    client_servers: List[int] = field(default_factory=list, repr=False)
    cluster: Optional[DebarCluster] = field(default=None, repr=False)

    @property
    def dedup1_throughput(self) -> float:
        return self.logical_bytes / self.dedup1_wall if self.dedup1_wall else 0.0

    @property
    def dedup2_throughput(self) -> float:
        return self.dedup2_log_bytes / self.dedup2_wall if self.dedup2_wall else 0.0

    @property
    def total_throughput(self) -> float:
        wall = self.dedup1_wall + self.dedup2_wall
        return self.logical_bytes / wall if wall else 0.0

    @property
    def supported_capacity_bytes(self) -> float:
        """Physical capacity the (modeled) index parts can address."""
        entries = self.part_modeled_bytes / 512 * 20 * self.n_servers
        return entries * 8 * KB


def run_write_experiment(
    w_bits: int,
    part_modeled_bytes: float,
    versions: int = 6,
    version_chunks: Optional[int] = None,
    clients_per_server: int = 4,
    section_chunks: int = 128,
    sigma: float = SIGMA,
    lpc_containers: Optional[int] = None,
    keep_cluster: bool = False,
    seed: int = 11,
) -> WriteExperimentResult:
    """Back up ``versions`` rounds of synthetic streams through a cluster.

    Follows the paper's Section 6.2 procedure: each client stream is a
    version chain with ~90 % duplicates (30 points cross-stream); dedup-2
    runs per the asynchronous policy with a forced flush at the end.

    ``lpc_containers`` defaults to just under one version's per-server
    container working set — the paper-scale relationship (a 128 MB LPC
    against 200 GB of per-server version data), under which each restored
    version re-fetches its containers instead of riding a cache that
    covers the whole scaled repository.
    """
    if lpc_containers is None:
        chunk_size = 8 * KB
        version_bytes = (version_chunks or int(VERSION_CHUNKS_PAPER * sigma)) * chunk_size
        per_version_containers = clients_per_server * version_bytes / (8 * MB)
        lpc_containers = max(4, int(per_version_containers * 0.9))
    cluster = scaled_cluster(w_bits, part_modeled_bytes, sigma, lpc_containers=lpc_containers)
    n_clients = cluster.n_servers * clients_per_server
    if version_chunks is None:
        version_chunks = max(128, int(VERSION_CHUNKS_PAPER * sigma))
    universe = SyntheticUniverse(
        SyntheticConfig(n_streams=n_clients, section_chunks=section_chunks, seed=seed)
    )
    jobs = [
        cluster.director.define_job(f"stream-{c}", f"client-{c}", [])
        for c in range(n_clients)
    ]
    result = WriteExperimentResult(
        w_bits=w_bits, n_servers=cluster.n_servers, part_modeled_bytes=part_modeled_bytes
    )
    for v in range(versions):
        assignments = []
        round_streams = []
        for c in range(n_clients):
            sections = universe.next_version(c, version_chunks)
            stream = list(universe.version_stream(sections))
            round_streams.append(stream)
            assignments.append((jobs[c], stream))
        d1 = cluster.backup_streams(assignments, timestamp=float(v))
        result.logical_bytes += d1.logical_bytes
        result.dedup1_wall += d1.wall_time
        result.version_streams.append(round_streams)
        if cluster.should_run_dedup2() or v == versions - 1:
            d2 = cluster.run_dedup2(force_psiu=(v == versions - 1))
            result.dedup2_wall += d2.wall_time
            result.dedup2_log_bytes += d2.log_bytes_processed
    result.client_servers = [
        cluster.director.scheduler.server_for(job) for job in jobs
    ]
    if keep_cluster:
        result.cluster = cluster
    return result


@dataclass
class ReadPoint:
    """One Figure 14(b) point: aggregate read throughput for a version."""

    version: int
    bytes_read: int
    wall: float
    lpc_hit_rate: float
    remote_container_fraction: float

    @property
    def throughput(self) -> float:
        return self.bytes_read / self.wall if self.wall else 0.0


def run_read_experiment(result: WriteExperimentResult) -> List[ReadPoint]:
    """Restore every version through the cluster, version by version.

    Clients read via their assigned servers (4 per server, lanes in
    parallel); the paper's Figure 14(b) decline comes from cross-stream
    chunks living in other nodes' containers, which the repository's
    placement + LPC statistics reproduce.
    """
    cluster = result.cluster
    if cluster is None:
        raise ValueError("run_write_experiment(keep_cluster=True) first")
    points = []
    for v, round_streams in enumerate(result.version_streams):
        lanes = [s.clock for s in cluster.servers]
        t0 = max(lane.now for lane in lanes)
        hits0 = sum(s.chunk_store.lpc.hits for s in cluster.servers)
        misses0 = sum(s.chunk_store.lpc.misses for s in cluster.servers)
        remote0 = sum(
            s.meter.by_category.get("restore.remote_container", 0.0)
            for s in cluster.servers
        )
        bytes_read = 0
        for c, stream in enumerate(round_streams):
            server = result.client_servers[c]
            for fp, size in stream:
                cluster.read_chunk(fp, via_server=server)
                bytes_read += size
        from repro.simdisk.clock import barrier

        barrier(lanes)
        wall = max(lane.now for lane in lanes) - t0
        hits = sum(s.chunk_store.lpc.hits for s in cluster.servers) - hits0
        misses = sum(s.chunk_store.lpc.misses for s in cluster.servers) - misses0
        remote_t = (
            sum(
                s.meter.by_category.get("restore.remote_container", 0.0)
                for s in cluster.servers
            )
            - remote0
        )
        points.append(
            ReadPoint(
                version=v + 1,
                bytes_read=bytes_read,
                wall=wall,
                lpc_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
                remote_container_fraction=remote_t / wall if wall else 0.0,
            )
        )
    return points
