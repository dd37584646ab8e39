"""Locality-preserved caching (LPC), adopted from DDFS (Sections 2, 3.3).

When a fingerprint misses the cache but is found by a disk-index lookup,
*all* fingerprints of the container holding it are prefetched into the
cache, on the bet (underwritten by SISL layout) that neighbours in the
container will be accessed next.  One random disk I/O thus pre-pays many
future hits; DDFS reports >99 % of index lookups eliminated, and the paper's
restore path sees 99.3 %.

DEBAR uses LPC on the read/restore path; the DDFS baseline also uses it
inline on the write path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Optional

from repro.core.fingerprint import Fingerprint


class LocalityPreservedCache:
    """An LRU cache of container fingerprint groups.

    Capacity is counted in containers, matching how the paper sizes it
    (e.g. DDFS's 128 MB LPC = 16 containers' fingerprint metadata at 8 MB
    container size — the cache stores fingerprint groups, not payloads,
    so real memory use is far below ``capacity * container size``).
    """

    def __init__(self, capacity_containers: int) -> None:
        if capacity_containers < 1:
            raise ValueError("cache needs capacity for at least one container")
        self.capacity = capacity_containers
        self._groups: "OrderedDict[int, set]" = OrderedDict()
        self._fp_to_cid: Dict[Fingerprint, int] = {}
        self.hits = 0
        self.misses = 0
        self.prefetches = 0
        self.evictions = 0

    def lookup(self, fp: Fingerprint) -> Optional[int]:
        """Return the cached container ID for ``fp``, or None; updates LRU."""
        cid = self._fp_to_cid.get(fp)
        if cid is None:
            self.misses += 1
            return None
        self._groups.move_to_end(cid)
        self.hits += 1
        return cid

    def insert_container(self, container_id: int, fingerprints: Iterable[Fingerprint]) -> None:
        """Prefetch a container's whole fingerprint group (the LPC move)."""
        if container_id in self._groups:
            self._groups.move_to_end(container_id)
            return
        group = set(fingerprints)
        self._groups[container_id] = group
        for fp in group:
            self._fp_to_cid[fp] = container_id
        self.prefetches += 1
        while len(self._groups) > self.capacity:
            self._evict()

    def discard(self, container_id: int) -> None:
        """Forget a container that no longer exists (``gc`` removed it), so
        no lookup routes a read to it."""
        self._drop(container_id, self._groups.pop(container_id, ()))

    def _evict(self) -> None:
        self._drop(*self._groups.popitem(last=False))
        self.evictions += 1

    def _drop(self, container_id: int, group: Iterable[Fingerprint]) -> None:
        for fp in group:
            # A fingerprint can appear in one container only (dedup invariant),
            # but guard against having been re-pointed by a newer group.
            if self._fp_to_cid.get(fp) == container_id:
                del self._fp_to_cid[fp]

    def __contains__(self, container_id: int) -> bool:
        return container_id in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.prefetches = self.evictions = 0
