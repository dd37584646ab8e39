"""The cold tier's container-metadata cache.

A cold container's metadata section (its chunk records) is needed by
every ranged read, scrub pass and lifecycle scan; re-fetching it from the
object store per access would double the request count.  The tiered
repository therefore reads cold metadata through one bounded in-memory
LRU, :class:`LruMetaCache`.

Cache values are treated as immutable by contract (sealed containers
never change; invalidation happens only on repair/GC).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.telemetry.registry import MetricsRegistry, get_registry


class LruMetaCache:
    """Container id -> parsed metadata section (opaque to the cache), with
    ``storage.meta_cache_*`` telemetry."""

    def __init__(
        self,
        capacity: int = 1024,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[int, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        registry = registry if registry is not None else get_registry()
        self._t_hits = registry.counter(
            "storage.meta_cache_hits", "container-metadata cache hits"
        ).labels()
        self._t_misses = registry.counter(
            "storage.meta_cache_misses", "container-metadata cache misses"
        ).labels()

    def get(self, container_id: int):
        meta = self._entries.get(container_id)
        if meta is None:
            self.misses += 1
            self._t_misses.inc()
            return None
        self._entries.move_to_end(container_id)
        self.hits += 1
        self._t_hits.inc()
        return meta

    def put(self, container_id: int, meta) -> None:
        self._entries[container_id] = meta
        self._entries.move_to_end(container_id)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self, container_id: int) -> None:
        self._entries.pop(container_id, None)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, container_id: int) -> bool:
        return container_id in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def status(self) -> Dict[str, float]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }
