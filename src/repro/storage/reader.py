"""The one chunk-read path: a planned, fall-through reader over named sources.

The paper's restore is one rule — read chunks by fingerprint in stream
order, and because SISL containers keep that order a miss should pull in
its neighbours (the LPC argument, Section 3.3).  :class:`ChunkReader` is
that rule for every medium that is not the local LPC itself: primed with
the run's fingerprint sequence (the *plan*), a miss hands the source the
window of fingerprints the restore will ask for next, whatever comes back
is kept in a look-ahead cache, and a source that cannot answer falls
through to the next one in order.  It presents the ``read_chunk(fp)``
surface :meth:`~repro.client.backup_client.BackupEngine.restore_run`
already speaks.

A *source* is the part that differs per medium.  It is one of:

* an object with ``fetch(fp, upcoming) -> {fp: bytes}`` — ``upcoming``
  starts with ``fp`` and lists the distinct planned fingerprints that
  follow it; the source returns at least ``fp`` and is free to return
  more (or fewer: a partial answer is kept, and only what is still
  missing is asked for again, of every source in order, at the next
  miss).  The tiered local store
  (:class:`repro.backend.planner.TieredSource`) and the wire
  (:class:`repro.net.client.WireSource`) are the two in the tree;
* a ``Mapping`` of fingerprint to payload (the archive's folded chunk map);
* anything with ``read_chunk(fp)`` — a :class:`ChunkStore`, another reader.

A source raising ``KeyError``, ``ProtocolError`` or ``OSError`` means
*this source cannot help* — "does not hold it", "peer is down" and
"backend gave up" fall through alike; anything else (corruption in
particular) propagates.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.fingerprint import Fingerprint
from repro.telemetry.registry import MetricsRegistry, get_registry

#: Plan entries examined per miss: the look-ahead handed to a source.
PLAN_WINDOW = 64

Fetch = Callable[[Fingerprint, List[Fingerprint]], Mapping]


def _fetcher(source: object) -> Fetch:
    fetch = getattr(source, "fetch", None)
    if fetch is not None:
        return fetch
    read = source.__getitem__ if isinstance(source, Mapping) else source.read_chunk
    return lambda fp, upcoming: {fp: read(fp)}


class ChunkReader:
    """``read_chunk`` over ordered, named sources, with planned look-ahead.

    Parameters
    ----------
    sources:
        ``(name, source)`` pairs, tried in order on every miss.  Names
        label ``repl.failovers{missed,served}`` and :attr:`last_source`.
    plan:
        The fingerprint sequence the caller is about to read (a restore's
        recipe order).  Without one every read asks for exactly one chunk
        — the per-chunk baseline.
    """

    def __init__(
        self,
        sources: Sequence[Tuple[str, object]],
        plan: Optional[Iterable[Fingerprint]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not sources:
            raise ValueError("a chunk reader needs at least one source")
        # repro.net's package init imports the vault, which imports this
        # module: the wire's exception base can only be named lazily.
        from repro.net.framing import ProtocolError

        self._cannot_help = (KeyError, ProtocolError, OSError)
        self.sources: List[Tuple[str, object]] = list(sources)
        self._fetchers = [(name, _fetcher(source)) for name, source in self.sources]
        self._plan: List[Fingerprint] = list(plan) if plan is not None else []
        self._plan_pos = 0
        self._ahead: Dict[Fingerprint, bytes] = {}
        registry = registry if registry is not None else get_registry()
        self._t_failovers = registry.counter(
            "repl.failovers", "chunk reads that fell through to a later replica"
        )
        #: Name of the source that answered the most recent miss (repair
        #: attribution: the scrubber names its healer from this).
        self.last_source: Optional[str] = None

    def read_chunk(self, fp: Fingerprint) -> bytes:
        data = self._ahead.pop(fp, None)
        if data is not None:
            return data
        upcoming = self._upcoming(fp)
        last_exc: Optional[Exception] = None
        for position, (name, fetch) in enumerate(self._fetchers):
            try:
                got = dict(fetch(fp, upcoming))
            except self._cannot_help as exc:
                last_exc = exc
                continue
            data = got.pop(fp, None)
            self._ahead.update(got)
            if data is None:
                last_exc = KeyError(f"{name} answered without {fp.hex()[:12]}")
                continue
            self.last_source = name
            if position > 0:
                self._t_failovers.labels(
                    missed=self._fetchers[0][0], served=name
                ).inc()
            return data
        if len(self._fetchers) == 1 and not isinstance(last_exc, KeyError):
            # Nothing fell through: a lone source's transport or backend
            # error keeps its type (the CLI maps it to an exit code).
            raise last_exc
        raise KeyError(
            f"fingerprint {fp.hex()[:12]} unavailable on all "
            f"{len(self._fetchers)} sources: {last_exc}"
        ) from last_exc

    def _upcoming(self, fp: Fingerprint) -> List[Fingerprint]:
        """``fp`` and the distinct, not yet fetched fingerprints planned
        within :data:`PLAN_WINDOW` entries of it.

        The scan for ``fp`` commits only when it is found: an off-plan
        read (a scrub repair probe, a replayed fingerprint) must not burn
        the rest of the plan, or every later planned read would degrade
        to one request per chunk.
        """
        plan = self._plan
        pos = self._plan_pos
        while pos < len(plan) and plan[pos] != fp:
            pos += 1
        if pos >= len(plan):
            return [fp]
        self._plan_pos = pos + 1
        ahead = self._ahead
        return [
            planned
            for planned in dict.fromkeys(plan[pos : pos + PLAN_WINDOW])
            if planned not in ahead
        ]

    def close(self) -> None:
        """Close every source that has something of its own to close (a
        wire source closes only a client it dialled itself)."""
        for _, source in self.sources:
            close = getattr(source, "close", None)
            if close is not None:
                close()
