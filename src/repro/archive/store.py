"""The archive-side delta store: chains, merge/compaction, retention
(DESIGN.md §15.2–§15.3).

Layout (under the serving vault's root, like the replica store)::

    archive/
      <origin>/<job>/<base:08d>-<run:08d>.delta   one chain segment
      <origin>/<job>/merge.json                   resumable merge cursor

A job's **chain** is the contiguous segment path from base 0 to the tip:
``0→a``, ``a→b``, ..., ``y→tip``.  Its segment *endpoints* are the
restorable points.  Ingest is strictly FIFO — a pushed delta must apply
against the current tip (``base_run_id == tip``); a re-push of an
already-applied run is an idempotent no-op, which is what makes the wire
retry/response-cache path and shipper restarts safe.

Merging is crash-safe via a two-phase cursor: the merged segment is
written to a temp file, the cursor names sources and target, the temp is
atomically renamed over the final name, and only then are the sources
deleted.  :meth:`ArchiveStore.resume` (run at open) rolls an interrupted
merge forward past the publish point or discards the temp before it —
either way every restorable point of the pre-crash chain that retention
had not already expired is still restorable.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.archive.delta import (
    Delta,
    Recipe,
    fold,
    merge_deltas,
    pack_delta,
    unpack_delta,
)
from repro.archive.retention import RetentionPolicy
from repro.durability.fsshim import atomic_write
from repro.telemetry.registry import MetricsRegistry, get_registry

_SUFFIX = ".delta"
_CURSOR = "merge.json"


class ArchiveError(ValueError):
    """A delta the archive must refuse (out of order, unsafe name, absent)."""


def _safe(name: str, what: str) -> str:
    if not name or any(c in name for c in "/\\\0") or name in (".", ".."):
        raise ArchiveError(f"unsafe archive {what} {name!r}")
    return name


@dataclass(frozen=True)
class Segment:
    """One on-disk chain segment (parsed from its filename + header)."""

    base: int
    run: int
    path: Path
    timestamp: float
    bytes: int
    full: bool
    chunks: int

    @property
    def name(self) -> str:
        return self.path.name


class ArchiveStore:
    """Delta chains for any number of origins, under one directory."""

    def __init__(
        self, root, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        registry = registry if registry is not None else get_registry()
        self._t_received = registry.counter(
            "archive.deltas_received", "delta objects accepted by this archive"
        ).labels()
        self._t_merges = registry.counter(
            "archive.merges", "adjacent delta pairs merged (compaction)"
        ).labels()
        self._t_expired = registry.counter(
            "archive.runs_expired", "restore points expired by retention"
        ).labels()
        self._t_chains = registry.gauge(
            "archive.chains", "job chains held by this archive"
        ).labels()
        #: Crash-point announcer (repro.audit.faults); None in production.
        self.fault_hook = None
        #: Serializes ingest/merge against reads — the server core runs
        #: handlers concurrently, and a fold mid-merge must not see a
        #: half-replaced chain.
        self._lock = threading.RLock()
        self.resume()

    def _fault(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    # -- layout -------------------------------------------------------------------
    def _job_dir(self, origin: str, job: str) -> Path:
        return self.root / _safe(origin, "origin") / _safe(job, "job")

    @staticmethod
    def _segment_name(base: int, run: int) -> str:
        return f"{base:08d}-{run:08d}{_SUFFIX}"

    def origins(self) -> List[str]:
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def jobs(self, origin: str) -> List[str]:
        root = self.root / _safe(origin, "origin")
        if not root.is_dir():
            return []
        return sorted(p.name for p in root.iterdir() if p.is_dir())

    def _read_header(self, path: Path) -> dict:
        from repro.archive.delta import unpack_header
        from repro.durability.errors import TornWriteError

        blob = path.read_bytes()
        try:
            header, _ = unpack_header(blob, artifact=path.name)
        except TornWriteError:
            raise ArchiveError(f"segment {path.name} is torn")
        return header

    def _segments(self, origin: str, job: str) -> List[Segment]:
        """Every well-formed segment file, sorted by (base, run)."""
        job_dir = self._job_dir(origin, job)
        if not job_dir.is_dir():
            return []
        out: List[Segment] = []
        for path in job_dir.iterdir():
            name = path.name
            if not name.endswith(_SUFFIX):
                continue
            stem = name[: -len(_SUFFIX)]
            base_s, sep, run_s = stem.partition("-")
            if not sep or not base_s.isdigit() or not run_s.isdigit():
                continue
            header = self._read_header(path)
            out.append(
                Segment(
                    base=int(base_s),
                    run=int(run_s),
                    path=path,
                    timestamp=float(header["timestamp"]),
                    bytes=path.stat().st_size,
                    full=bool(header["full"]),
                    chunks=int(header["chunks"]),
                )
            )
        return sorted(out, key=lambda s: (s.base, s.run))

    def chain(self, origin: str, job: str) -> List[Segment]:
        """The contiguous segment path from base 0 to the tip.

        Overlapping leftovers of an interrupted merge (a merged segment
        published, its sources not yet deleted) are resolved greedily:
        at each position the longest span wins, which is always the
        merged segment.
        """
        segments = self._segments(origin, job)
        path: List[Segment] = []
        cursor = 0
        by_base: Dict[int, List[Segment]] = {}
        for seg in segments:
            by_base.setdefault(seg.base, []).append(seg)
        while cursor in by_base:
            seg = max(by_base[cursor], key=lambda s: s.run)
            path.append(seg)
            cursor = seg.run
        covered = {s.path for s in path}
        stray = [s for s in segments if s.path not in covered]
        if stray and path and any(s.run > path[-1].run for s in stray):
            raise ArchiveError(
                f"broken chain for {origin}/{job}: segment "
                f"{max(stray, key=lambda s: s.run).name} is unreachable from 0"
            )
        return path

    def tip(self, origin: str, job: str) -> int:
        chain = self.chain(origin, job)
        return chain[-1].run if chain else 0

    def points(self, origin: str, job: str) -> List[int]:
        """The restorable run ids (chain segment endpoints), ascending."""
        return [seg.run for seg in self.chain(origin, job)]

    # -- crash recovery ----------------------------------------------------------
    def resume(self) -> int:
        """Finish (or discard) interrupted merges; sweep stray temp files.

        Runs at open.  Returns the number of merge cursors resolved.
        A published target rolls the merge *forward* (delete the shadowed
        sources); an unpublished one rolls it *back* (delete the temp) —
        both leave a clean, fully restorable chain.
        """
        resolved = 0
        for origin_dir in self.root.iterdir():
            if not origin_dir.is_dir():
                continue
            for job_dir in origin_dir.iterdir():
                if not job_dir.is_dir():
                    continue
                cursor = job_dir / _CURSOR
                if cursor.exists():
                    try:
                        doc = json.loads(cursor.read_text())
                    except ValueError:
                        doc = {}
                    target = job_dir / str(doc.get("target", ""))
                    if doc.get("target") and target.exists():
                        for source in doc.get("sources", []):
                            (job_dir / str(source)).unlink(missing_ok=True)
                    target_tmp = job_dir / (str(doc.get("target", "")) + ".tmp")
                    target_tmp.unlink(missing_ok=True)
                    cursor.unlink(missing_ok=True)
                    resolved += 1
                for stray in job_dir.glob("*.tmp"):
                    stray.unlink(missing_ok=True)
        return resolved

    # -- ingest -------------------------------------------------------------------
    def ingest(
        self, origin: str, job: str, blob: bytes, delta: Optional[Delta] = None
    ) -> Tuple[bool, int]:
        """Accept one pushed delta; returns ``(stored, new tip)``.

        The blob is fully CRC-verified before anything touches disk.  A
        run at or behind the tip is an idempotent no-op (``stored=False``);
        a run ahead of the tip whose base is not the tip is refused —
        chains only grow contiguously.
        """
        if delta is None:
            delta = unpack_delta(blob, artifact=f"pushed delta {origin}/{job}")
        if delta.job != job:
            raise ArchiveError(
                f"delta names job {delta.job!r}, pushed for {job!r}"
            )
        with self._lock:
            job_dir = self._job_dir(origin, job)
            tip = self.tip(origin, job)
            if delta.run_id <= tip:
                return False, tip
            if delta.base_run_id != tip:
                raise ArchiveError(
                    f"out-of-order delta for {origin}/{job}: base "
                    f"{delta.base_run_id} does not match tip {tip}"
                )
            job_dir.mkdir(parents=True, exist_ok=True)
            final = job_dir / self._segment_name(delta.base_run_id, delta.run_id)
            atomic_write(final, blob)
        self._t_received.inc()
        self._publish_chain_gauge()
        return True, delta.run_id

    # -- reads --------------------------------------------------------------------
    def read_blob(self, origin: str, job: str, base: int, run: int) -> bytes:
        """One segment's raw bytes (the ``DELTA_FETCH`` body)."""
        with self._lock:
            path = self._job_dir(origin, job) / self._segment_name(base, run)
            if not path.exists():
                raise ArchiveError(
                    f"no segment {base}->{run} for {origin}/{job}"
                )
            return path.read_bytes()

    def load(self, origin: str, job: str, base: int, run: int) -> Delta:
        return unpack_delta(
            self.read_blob(origin, job, base, run),
            artifact=f"{origin}/{job}/{self._segment_name(base, run)}",
        )

    def _recipe_at(self, origin: str, job: str, run: int) -> Recipe:
        """Fold the chain prefix ending at restore point ``run`` (0 = {})."""
        if run == 0:
            return {}
        recipe: Recipe = {}
        for seg in self.chain(origin, job):
            if seg.run > run:
                break
            recipe = fold(recipe, self.load(origin, job, seg.base, seg.run))
            if seg.run == run:
                return recipe
        raise ArchiveError(
            f"run {run} is not a restorable point of {origin}/{job} "
            f"(points: {self.points(origin, job)})"
        )

    def restore_point(
        self, origin: str, job: str, as_of: int
    ) -> Tuple[Recipe, Dict[bytes, bytes]]:
        """The full recipe at ``as_of`` plus every chain-prefix chunk.

        By the chain-coverage invariant the returned chunk map resolves
        every fingerprint the recipe references.
        """
        with self._lock:
            chain = self.chain(origin, job)
            if as_of not in {seg.run for seg in chain}:
                raise ArchiveError(
                    f"run {as_of} is not a restorable point of {origin}/{job} "
                    f"(points: {[seg.run for seg in chain]})"
                )
            recipe: Recipe = {}
            chunks: Dict[bytes, bytes] = {}
            for seg in chain:
                if seg.run > as_of:
                    break
                delta = self.load(origin, job, seg.base, seg.run)
                recipe = fold(recipe, delta)
                chunks.update(delta.chunks)
            return recipe, chunks

    # -- merge / compaction -------------------------------------------------------
    def _merge_pair(self, origin: str, job: str, s1: Segment, s2: Segment) -> None:
        """Merge two adjacent segments, crash-safely (cursor protocol)."""
        from repro.audit.faults import (
            ARCHIVE_MERGE_PREPUBLISH,
            ARCHIVE_MERGE_PRECLEANUP,
        )

        job_dir = self._job_dir(origin, job)
        merged = merge_deltas(
            self.load(origin, job, s1.base, s1.run),
            self.load(origin, job, s2.base, s2.run),
            base_recipe=self._recipe_at(origin, job, s1.base),
        )
        target = self._segment_name(s1.base, s2.run)
        cursor = job_dir / _CURSOR
        atomic_write(
            cursor,
            json.dumps({"sources": [s1.name, s2.name], "target": target}).encode(),
        )
        tmp = job_dir / (target + ".tmp")
        tmp.write_bytes(pack_delta(merged))
        self._fault(ARCHIVE_MERGE_PREPUBLISH)
        tmp.replace(job_dir / target)
        self._fault(ARCHIVE_MERGE_PRECLEANUP)
        s1.path.unlink(missing_ok=True)
        s2.path.unlink(missing_ok=True)
        cursor.unlink(missing_ok=True)
        self._t_merges.inc()

    def compact(self, origin: str, job: str, keep: Set[int]) -> List[int]:
        """Merge away every interior restore point not in ``keep``.

        The tip survives regardless.  Returns the expired run ids.  One
        pair merges at a time, each behind its own cursor, so a crash at
        any moment costs at most a re-merge — never a surviving point.
        """
        expired: List[int] = []
        while True:
            with self._lock:
                chain = self.chain(origin, job)
                victim = None
                for s1, s2 in zip(chain, chain[1:]):
                    if s1.run not in keep:
                        victim = (s1, s2)
                        break
                if victim is None:
                    return expired
                self._merge_pair(origin, job, *victim)
            expired.append(victim[0].run)

    def apply_retention(
        self, origin: str, job: str, policy: RetentionPolicy
    ) -> List[int]:
        """Expire this chain's points per ``policy`` (merge forward, drop)."""
        chain = self.chain(origin, job)
        keep = policy.keep([(seg.run, seg.timestamp) for seg in chain])
        expired = self.compact(origin, job, keep)
        if expired:
            self._t_expired.inc(len(expired))
        return expired

    # -- status -------------------------------------------------------------------
    def _publish_chain_gauge(self) -> None:
        self._t_chains.set(
            sum(len(self.jobs(origin)) for origin in self.origins())
        )

    def status(self) -> dict:
        """JSON-able inventory (the ``ARCHIVE_STATUS`` body)."""
        with self._lock:
            return self._status_locked()

    def _status_locked(self) -> dict:
        origins: dict = {}
        for origin in self.origins():
            jobs: dict = {}
            for job in self.jobs(origin):
                chain = self.chain(origin, job)
                jobs[job] = {
                    "tip": chain[-1].run if chain else 0,
                    "points": [seg.run for seg in chain],
                    "segments": [
                        {
                            "base": seg.base,
                            "run": seg.run,
                            "bytes": seg.bytes,
                            "timestamp": seg.timestamp,
                            "full": seg.full,
                            "chunks": seg.chunks,
                        }
                        for seg in chain
                    ],
                    "bytes": sum(seg.bytes for seg in chain),
                }
            origins[origin] = jobs
        return {"root": str(self.root), "origins": origins}
