"""The cold-tier read planner: adjacent chunk ranges become batched GETs.

A restore knows its full fingerprint sequence up front (the catalog's
per-file fingerprint lists), and SISL containers store chunks in stream
order — so consecutive restore reads usually land on *adjacent byte
ranges of the same cold container*.  :class:`ColdChunkReader` exploits
that: primed with the plan, each cold miss looks ahead, groups the
upcoming planned fingerprints that live in the same container, coalesces
their payload ranges (:func:`repro.util.ranges.coalesce`), and fetches
them with **one multi-range GET** instead of one request per chunk.

Hot chunks take the normal path (the chunk store's LPC does the batching
there); the planner only fronts containers the lifecycle manager has
migrated cold.  ``batch=False`` degrades to one ranged GET per chunk —
the unbatched baseline ``bench_cold_restore`` compares against.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.util.ranges import SegmentBuffer, Span, coalesce

#: Plan fingerprints examined per fill window.
PLAN_WINDOW = 64

#: Coalesce payload ranges whose gap is below this many bytes.
RANGE_GAP = 4096

#: Per-container segment buffers kept alive at once.
MAX_BUFFERS = 8


class ColdChunkReader:
    """``read_chunk`` over a tiered repository with planned range batching.

    Parameters
    ----------
    repository:
        A :class:`~repro.storage.tiered.TieredChunkRepository` (or any
        object with ``tier_of``/``fetch_meta``/``read_ranges``).
    index:
        Fingerprint -> container ID resolver (``lookup``).
    hot_reader:
        Where hot-tier reads go — normally the vault's
        :class:`~repro.server.chunk_store.ChunkStore` so the LPC keeps
        working; anything with ``read_chunk(fp)``.
    batch:
        ``False`` disables planning: every cold chunk costs one ranged
        GET (the measurement baseline).
    """

    def __init__(
        self,
        repository,
        index,
        hot_reader,
        batch: bool = True,
        window: int = PLAN_WINDOW,
        max_gap: int = RANGE_GAP,
        registry=None,
        name: str = "cold-tier",
    ) -> None:
        self.repository = repository
        self.index = index
        self.hot_reader = hot_reader
        self.batch = batch
        self.window = window
        self.max_gap = max_gap
        self.name = name
        self._plan: List[bytes] = []
        self._plan_pos = 0
        self._buffers: "OrderedDict[int, SegmentBuffer]" = OrderedDict()
        self._meta: Dict[int, Tuple[Dict[bytes, object], int]] = {}
        self.hot_chunks = 0
        self.cold_chunks = 0
        self.fill_requests = 0
        if registry is None:
            from repro.telemetry.registry import get_registry

            registry = get_registry()
        self._t_hot = registry.counter(
            "storage.planner_hot_chunks", "chunk reads served from the hot tier"
        ).labels()
        self._t_cold = registry.counter(
            "storage.planner_cold_chunks", "chunk reads served from the cold tier"
        ).labels()
        self._t_fills = registry.counter(
            "storage.planner_fills", "cold buffer fills (one backend request each)"
        ).labels()

    def plan(self, fps: Sequence[bytes]) -> None:
        """Prime the reader with the restore's fingerprint sequence."""
        self._plan = list(fps)
        self._plan_pos = 0

    # -- cold-container metadata ---------------------------------------------
    def _meta_for(self, cid: int) -> Tuple[Dict[bytes, object], int]:
        cached = self._meta.get(cid)
        if cached is not None:
            return cached
        records, data_start = self.repository.fetch_meta(cid)
        meta = ({r.fingerprint: r for r in records}, data_start)
        self._meta[cid] = meta
        return meta

    def _buffer(self, cid: int) -> SegmentBuffer:
        buf = self._buffers.get(cid)
        if buf is None:
            buf = SegmentBuffer()
            self._buffers[cid] = buf
            while len(self._buffers) > MAX_BUFFERS:
                old, _ = self._buffers.popitem(last=False)
                self._meta.pop(old, None)
        else:
            self._buffers.move_to_end(cid)
        return buf

    # -- the fill window ------------------------------------------------------
    def _window_fps(self, fp: bytes, cid: int) -> List[bytes]:
        """Upcoming planned fingerprints living in container ``cid``.

        Scans ahead without committing (off-plan probes must not burn the
        plan — same contract as the wire reader); commits the position
        only when ``fp`` is found on the plan.
        """
        pos = self._plan_pos
        while pos < len(self._plan) and self._plan[pos] != fp:
            pos += 1
        if pos >= len(self._plan):
            return [fp]
        self._plan_pos = pos + 1
        out: List[bytes] = []
        seen = set()
        for planned in self._plan[pos : pos + self.window]:
            if planned in seen:
                continue
            seen.add(planned)
            if planned == fp or self.index.lookup(planned) == cid:
                out.append(planned)
        return out

    def _fill(self, cid: int, fp: bytes) -> SegmentBuffer:
        recmap, data_start = self._meta_for(cid)
        fps = self._window_fps(fp, cid) if self.batch else [fp]
        spans = []
        for planned in fps:
            rec = recmap.get(planned)
            if rec is not None and rec.size:
                spans.append(Span(data_start + rec.offset, rec.size, rec))
        groups = coalesce(spans, max_gap=self.max_gap if self.batch else 0)
        buf = self._buffer(cid)
        ranges = [
            (g.start, g.length)
            for g in groups
            if not buf.covers(g.start, g.length)
        ]
        if ranges:
            self.fill_requests += 1
            self._t_fills.inc()
            for (start, _), blob in zip(
                ranges, self.repository.read_ranges(cid, ranges)
            ):
                buf.add(start, blob)
        return buf

    # -- the ChunkStore-compatible surface ------------------------------------
    def read_chunk(self, fp: bytes) -> bytes:
        cid = self.index.lookup(fp)
        if cid is None:
            raise KeyError(f"fingerprint {fp.hex()[:12]} not stored")
        if self.repository.tier_of(cid) == "hot":
            self.hot_chunks += 1
            self._t_hot.inc()
            return self.hot_reader.read_chunk(fp)
        recmap, data_start = self._meta_for(cid)
        rec = recmap.get(fp)
        if rec is None:
            raise KeyError(
                f"fingerprint {fp.hex()[:12]} not in container {cid}"
            )
        start = data_start + rec.offset
        buf = self._buffers.get(cid)
        if buf is None or not buf.covers(start, rec.size):
            buf = self._fill(cid, fp)
        data = buf.read(start, rec.size)
        self.cold_chunks += 1
        self._t_cold.inc()
        return data
