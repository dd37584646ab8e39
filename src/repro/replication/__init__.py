"""repro.replication — replica placement, async container replication,
failover reads, and node rebuild (DESIGN.md §11).

The subsystem that turns the single-copy store into a fault-tolerant
cluster: a deterministic :class:`~repro.replication.ring.PlacementRing`
assigns each sealed container a replica set, the asynchronous
:class:`~repro.replication.replicator.Replicator` ships byte-identical
container images (and the run catalog) to those peers after dedup-2,
peers keep them in a verified :class:`~repro.replication.store.ReplicaStore`,
reads fall through the replica set as further sources of the one
:class:`~repro.storage.reader.ChunkReader`
(:class:`~repro.net.client.WireSource` per surviving peer), and
:func:`~repro.replication.rebuild.rebuild_node` reconstructs a lost node
from the survivors.
"""

from repro.replication.rebuild import RebuildError, RebuildReport, rebuild_node
from repro.replication.replicator import Replicator, peers_from_state
from repro.replication.ring import PlacementRing
from repro.replication.store import ReplicaStore, ReplicaStoreError

__all__ = [
    "PlacementRing",
    "RebuildError",
    "RebuildReport",
    "ReplicaStore",
    "ReplicaStoreError",
    "Replicator",
    "peers_from_state",
    "rebuild_node",
]
