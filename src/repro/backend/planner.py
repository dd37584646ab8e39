"""The tiered local store as a chunk source: adjacent ranges, batched GETs.

A restore knows its full fingerprint sequence up front (the catalog's
per-file fingerprint lists), and SISL containers store chunks in stream
order — so consecutive restore reads usually land on *adjacent byte
ranges of the same cold container*.  :class:`TieredSource` exploits
that: handed the window of upcoming planned fingerprints by
:class:`~repro.storage.reader.ChunkReader`, a cold miss picks out the
ones that live in the same container, coalesces their payload ranges
(:func:`repro.util.ranges.coalesce`), and fetches them with **one
multi-range GET** instead of one request per chunk.

Hot chunks take the normal path (the chunk store's LPC does the batching
there); the source only plans for containers the lifecycle manager has
migrated cold.  Under an unprimed reader the window is the one chunk
asked for, i.e. one ranged GET per cold chunk — the unbatched baseline
``bench_cold_restore`` compares against.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from repro.telemetry.registry import get_registry
from repro.util.ranges import RANGE_GAP, SegmentBuffer, Span, coalesce

#: Per-container segment buffers kept alive at once: a fingerprint the
#: plan repeats (or a gap byte range a later chunk falls in) is served
#: from what was already fetched instead of a second request.
MAX_BUFFERS = 8


class TieredSource:
    """``fetch(fp, upcoming)`` over a tiered repository.

    Parameters
    ----------
    repository:
        A :class:`~repro.storage.tiered.TieredChunkRepository` (or any
        object with ``tier_of``/``fetch_meta``/``read_ranges``).
    index:
        Fingerprint -> container ID resolver (``lookup``).
    chunk_store:
        Where hot-tier reads go — the vault's
        :class:`~repro.server.chunk_store.ChunkStore`, so the LPC keeps
        working (it also resolves chunks still pending SIU).
    """

    def __init__(self, repository, index, chunk_store, registry=None) -> None:
        self.repository = repository
        self.index = index
        self.chunk_store = chunk_store
        self._buffers: "OrderedDict[int, SegmentBuffer]" = OrderedDict()
        registry = registry if registry is not None else get_registry()
        self._t_hot = registry.counter(
            "storage.planner_hot_chunks", "chunk reads served from the hot tier"
        ).labels()
        self._t_cold = registry.counter(
            "storage.planner_cold_chunks", "chunk reads served from the cold tier"
        ).labels()
        self._t_fills = registry.counter(
            "storage.planner_fills", "cold buffer fills (one backend request each)"
        ).labels()

    def _buffer(self, cid: int) -> SegmentBuffer:
        buf = self._buffers.pop(cid, None) or SegmentBuffer()
        self._buffers[cid] = buf  # (re)inserted last: most recently used
        while len(self._buffers) > MAX_BUFFERS:
            self._buffers.popitem(last=False)
        return buf

    def fetch(self, fp: bytes, upcoming: List[bytes]) -> Dict[bytes, bytes]:
        cid = self.index.lookup(fp)
        if cid is None or self.repository.tier_of(cid) == "hot":
            self._t_hot.inc()
            return {fp: self.chunk_store.read_chunk(fp)}
        records, data_start = self.repository.fetch_meta(cid)
        by_fp = {r.fingerprint: r for r in records}
        if fp not in by_fp:
            raise KeyError(f"fingerprint {fp.hex()[:12]} not in container {cid}")
        # Membership by the container's own metadata, not one index probe
        # per planned fingerprint: a record stored here is the chunk,
        # wherever the index points its fingerprint.
        spans = [
            Span(data_start + rec.offset, rec.size, p)
            for p in upcoming
            if (rec := by_fp.get(p)) is not None and rec.size
        ]
        buf = self._buffer(cid)
        groups = coalesce(
            (s for s in spans if not buf.covers(s.start, s.length)),
            max_gap=RANGE_GAP,
        )
        if groups:
            self._t_fills.inc()
            blobs = self.repository.read_ranges(
                cid, [(g.start, g.length) for g in groups]
            )
            for group, blob in zip(groups, blobs):
                buf.add(group.start, blob)
        # A range that came back short leaves its span uncovered: ``read``
        # raises KeyError, a loud miss instead of silent short data.
        out = {s.item: buf.read(s.start, s.length) for s in spans}
        self._t_cold.inc(len(out))
        return out
