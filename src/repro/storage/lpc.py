"""Locality-preserved caching (LPC), adopted from DDFS (Sections 2, 3.3).

When a fingerprint misses the cache but is found by a disk-index lookup,
the *whole* container holding it is cached, on the bet (underwritten by
SISL layout) that neighbours in the container will be accessed next.  One
random disk I/O thus pre-pays many future hits; DDFS reports >99 % of
index lookups eliminated, and the paper's restore path sees 99.3 %.

DEBAR uses LPC on the read/restore path; the DDFS baseline also uses it
inline on the write path.  It is the only place an open vault keeps
containers in memory: the repositories underneath are plain stores.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.core.fingerprint import Fingerprint
from repro.storage.container import Container


class LocalityPreservedCache:
    """An LRU cache of containers, looked up by the fingerprints they hold.

    Capacity is counted in containers, matching how the paper sizes it
    (e.g. DDFS's 128 MB LPC = 16 containers at 8 MB container size).
    Whoever rewrites, quarantines or removes a cached container's image
    must :meth:`discard` it, or reads keep being served from the old copy.
    """

    def __init__(self, capacity_containers: int) -> None:
        if capacity_containers < 1:
            raise ValueError("cache needs capacity for at least one container")
        self.capacity = capacity_containers
        self._groups: "OrderedDict[int, Container]" = OrderedDict()
        self._fp_to_cid: Dict[Fingerprint, int] = {}
        self.hits = 0
        self.misses = 0
        self.prefetches = 0
        self.evictions = 0

    def lookup(self, fp: Fingerprint) -> Optional[Container]:
        """Return the cached container holding ``fp``, or None; updates LRU."""
        cid = self._fp_to_cid.get(fp)
        if cid is None:
            self.misses += 1
            return None
        self._groups.move_to_end(cid)
        self.hits += 1
        return self._groups[cid]

    def insert_container(self, container: Container) -> None:
        """Cache a container and its whole fingerprint group (the LPC move)."""
        cid = container.container_id
        if cid in self._groups:
            self._groups.move_to_end(cid)
            return
        self._groups[cid] = container
        for fp in container.fingerprints:
            self._fp_to_cid[fp] = cid
        self.prefetches += 1
        while len(self._groups) > self.capacity:
            self._drop(*self._groups.popitem(last=False))
            self.evictions += 1

    def discard(self, container_id: int) -> None:
        """Forget a container whose image was rewritten, quarantined or
        removed, so no lookup serves the old copy."""
        container = self._groups.pop(container_id, None)
        if container is not None:
            self._drop(container_id, container)

    def _drop(self, container_id: int, container: Container) -> None:
        for fp in container.fingerprints:
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
