"""The asynchronous replicator: sealed containers → replica peers.

One :class:`Replicator` rides beside a :class:`~repro.system.vault.DebarVault`
(the ``repro serve --replicate-to`` wiring).  The mechanism — per-peer
workers, in-flight window, backpressure, backoff, persisted acks — is the
shared :class:`~repro.net.shipper.AsyncShipper`; this is its container
*policy*:

* **owed**: every sealed container the
  :class:`~repro.replication.ring.PlacementRing` assigns to a peer that the
  peer has not acked (acked IDs persist in ``<vault>/replication.json``);
* **shipped** as the byte-identical image via ``CONTAINER_PUSH``,
  idempotent end to end (the wire layer retries under the server's
  response cache; the replica store acks a re-push of a held container
  as a no-op).  The *index delta* travels implicitly: images are
  self-described (Section 3.4), so the replica can always rebuild index
  entries by scanning metadata sections;
* the **catalog** (run metadata) is mirrored behind the engine's idle
  barrier — only when that peer's queue is empty and nothing of its is in
  flight — so a mirrored catalog never references chunks that have not yet
  arrived at that peer (DESIGN.md §11.5).

Telemetry: ``repl.queue_depth``, ``repl.lag``, ``repl.containers_shipped``,
``repl.bytes_shipped``, ``repl.catalog_pushes``, ``repl.push_errors``
(DESIGN.md §11.2).
"""

from __future__ import annotations

import functools
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.durability.errors import CorruptionError
from repro.net import messages as m
from repro.net.client import NetClient, RetryPolicy
from repro.net.shipper import AsyncShipper
from repro.net.shipper import peers_from_state as _peers_from_state
from repro.replication.ring import PlacementRing
from repro.telemetry.registry import MetricsRegistry


class Replicator(AsyncShipper):
    """Ships a vault's sealed containers to its ring-assigned peers."""

    STATE_FILE = "replication.json"
    PREFIX = "repl"
    WINDOW = 4
    IDLE_FLAG = "catalog_dirty"

    def __init__(
        self,
        vault,
        node_name: str,
        peers: Dict[str, Tuple[str, int]],
        replication_factor: int = 2,
        registry: Optional[MetricsRegistry] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.ring = PlacementRing(
            [node_name, *peers], replication_factor=replication_factor
        )
        super().__init__(vault, node_name, peers, registry, retry)
        self._t_shipped = self.registry.counter(
            "repl.containers_shipped", "containers acked by a replica peer"
        )
        self._t_bytes = self.registry.counter(
            "repl.bytes_shipped", "container image bytes acked by a replica peer"
        )
        self._t_catalogs = self.registry.counter(
            "repl.catalog_pushes", "catalog mirrors acked by a replica peer"
        )

    # -- ack state: the set of container IDs a peer holds ---------------------------
    def _identity(self) -> dict:
        return {"replication_factor": self.ring.replication_factor}

    def _load_acked(self, doc) -> Set[int]:
        return {int(cid) for cid in doc or ()}

    def _dump_acked(self, acked: Set[int]) -> list:
        return sorted(acked)

    def _acked_status(self, acked: Set[int]) -> int:
        return len(acked)

    def _fold_ack(self, acked: Set[int], cid: int) -> None:
        acked.add(cid)

    # -- what is owed, and how it ships ---------------------------------------------
    def _owed(self) -> Iterator[Tuple[str, int]]:
        for cid in self.vault.repository.container_ids():
            for peer in self.ring.peers_for_container(self.node_name, cid):
                if cid not in self._acked[peer]:
                    yield peer, cid

    def notify_run(self, run=None) -> None:
        # A committed run (or gc pass) makes every peer's mirrored catalog
        # stale; the barrier re-mirrors it once the containers have landed.
        self._mark_idle_due()
        super().notify_run(run)

    def _push(self, client: NetClient, peer: str, cid: int) -> None:
        repo = self.vault.repository
        if cid not in repo:
            # Sealed then garbage-collected before shipping: nothing owed.
            self._ack(peer, cid)
            return
        # Tier-agnostic: a container the lifecycle manager already moved
        # cold still ships its byte-identical image to the replica.
        image = repo.read_image(cid)
        envelope = {
            "origin": self.node_name,
            "container_id": cid,
            "bytes": len(image),
        }
        client.call(m.CONTAINER_PUSH, m.encode_container_image(envelope, image))
        self._t_shipped.labels(peer=peer).inc()
        self._t_bytes.labels(peer=peer).inc(len(image))
        self._ack(peer, cid)

    def _on_idle(self, client: NetClient, peer: str) -> None:
        try:
            catalog = self.vault.catalog.snapshot()
        except (CorruptionError, OSError):
            return  # unreadable right now; the next run marks us dirty again
        client.call_json(
            m.CATALOG_PUSH, {"origin": self.node_name, "catalog": catalog}
        )
        self._t_catalogs.labels(peer=peer).inc()


#: The peer map a vault last replicated to (``replication.json``).
peers_from_state = functools.partial(_peers_from_state, state_file=Replicator.STATE_FILE)
