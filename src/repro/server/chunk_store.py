"""The Chunk Store module: chunk retrieval (Section 3.3).

Dedup-2 (SIL -> chunk storing -> SIU) is the TPDS engine's own.  The
retrieval path implements the paper's LPC flow: look in the in-memory cache
first; on a miss, one random disk-index lookup locates the container, the
container is read and cached whole, and the chunk is served — so
sequential restores of SISL-laid-out streams hit the cache almost always
(99.3 % in the paper's measurement).
"""

from __future__ import annotations

from typing import Callable

from repro.core.fingerprint import Fingerprint
from repro.core.tpds import TwoPhaseDeduplicator
from repro.storage.container import default_payload
from repro.storage.lpc import LocalityPreservedCache


class ChunkStore:
    """The LPC-backed chunk reader of one backup server."""

    def __init__(
        self,
        tpds: TwoPhaseDeduplicator,
        lpc_containers: int = 16,
        payload: Callable[[Fingerprint, int], bytes] = default_payload,
    ) -> None:
        self._tpds = tpds
        self.lpc = LocalityPreservedCache(lpc_containers)
        self._payload = payload
        self.random_lookups = 0
        self.container_fetches = 0

    def read_chunk(self, fp: Fingerprint) -> bytes:
        """Read one chunk by fingerprint through the LPC (Section 3.3)."""
        container = self.lpc.lookup(fp)
        if container is None:
            tpds = self._tpds
            cid, probes = tpds.index.lookup_with_probes(fp)
            if cid is None:
                # Not yet registered? chunks pending SIU are still findable
                # through the checking file (stored-but-unregistered).
                cid = tpds.checking.get(fp)
                if cid is None:
                    raise KeyError(f"fingerprint {fp.hex()[:12]} not stored")
            self.random_lookups += 1
            tpds.meter.charge(
                "restore.index_random", tpds.rig.index_disk.random_read_time(probes)
            )
            container = tpds.container_manager.fetch(cid)
            self.container_fetches += 1
            tpds.meter.charge(
                "restore.container_read",
                tpds.rig.repository_disk.seq_read_time(container.capacity),
            )
            self.lpc.insert_container(container)
        return container.get(fp, self._payload)

    @property
    def lpc_hit_rate(self) -> float:
        """Fraction of chunk reads served without disk-index I/O."""
        return self.lpc.hit_rate
