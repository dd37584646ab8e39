"""The placement ring: deterministic replica sets for containers and
index-prefix partitions (DESIGN.md §11.1).

A classic consistent-hash ring with virtual nodes: every node name is
hashed onto ``vnodes`` points of a SHA-1 ring, and a key's replica set is
the first ``replication_factor`` *distinct* nodes met walking clockwise
from the key's own hash.  Determinism is the load-bearing property — any
process (the replicator, a scrubber hunting a repair source, a rebuild
after node loss) computes the same replica set from nothing but the node
list, so there is no placement database to replicate or lose.

Two key namespaces share the ring:

* ``ctr:<origin>:<container_id>`` — one sealed container of one node;
* ``idx:<w>:<prefix>`` — one fingerprint-prefix partition of the index
  (the first ``w`` bits, matching the paper's Section 6 performance
  scaling), so the index-bucket range a node owns has the same
  well-defined replica set as its containers.

Adding a node moves only ~1/n of the keys (the consistent-hashing
argument), so a rebuilt or replacement node re-homes a bounded share of
replicas rather than reshuffling the cluster.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

#: Virtual nodes per physical node; 64 keeps the per-node share of a
#: small ring within a few percent of 1/n.
DEFAULT_VNODES = 64


def _point(key: str) -> int:
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


class PlacementRing:
    """Deterministic node placement for replica sets of size ``rf``."""

    def __init__(
        self,
        nodes: Sequence[str],
        replication_factor: int = 2,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        names = list(dict.fromkeys(nodes))  # de-dup, keep order for repr
        if not names:
            raise ValueError("placement ring needs at least one node")
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        self.nodes = names
        self.replication_factor = min(replication_factor, len(names))
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = sorted(
            (_point(f"{name}#{v}"), name)
            for name in names
            for v in range(vnodes)
        )
        self._hashes = [h for h, _ in self._points]

    def __len__(self) -> int:
        return len(self.nodes)

    def replicas(self, key: str, rf: Optional[int] = None) -> List[str]:
        """The first ``rf`` distinct nodes clockwise from ``key``'s hash."""
        rf = self.replication_factor if rf is None else min(rf, len(self.nodes))
        start = bisect.bisect_right(self._hashes, _point(key))
        out: List[str] = []
        for i in range(len(self._points)):
            _, name = self._points[(start + i) % len(self._points)]
            if name not in out:
                out.append(name)
                if len(out) == rf:
                    break
        return out

    # -- the two key namespaces ------------------------------------------------
    def replicas_for_container(self, origin: str, container_id: int) -> List[str]:
        """The full replica set of one sealed container (origin included).

        The origin already holds the primary copy, so it heads the list;
        the ring fills the remaining ``rf - 1`` slots with distinct peers.
        """
        peers = [
            name
            for name in self.replicas(
                f"ctr:{origin}:{container_id}", rf=len(self.nodes)
            )
            if name != origin
        ]
        return [origin] + peers[: self.replication_factor - 1]

    def peers_for_container(self, origin: str, container_id: int) -> List[str]:
        """The replica set minus the origin: where to *ship* the container."""
        return self.replicas_for_container(origin, container_id)[1:]

    def replicas_for_prefix(self, prefix: int, w: int) -> List[str]:
        """Replica set of one ``2^w``-way index partition (first ``w`` bits)."""
        if w < 0 or (w and prefix >= (1 << w)):
            raise ValueError(f"prefix {prefix} does not fit {w} bits")
        return self.replicas(f"idx:{w}:{prefix}")

    def share(self, keys: Sequence[str]) -> Dict[str, int]:
        """How many of ``keys`` each node would own first — balance probe."""
        out = {name: 0 for name in self.nodes}
        for key in keys:
            out[self.replicas(key, rf=1)[0]] += 1
        return out
