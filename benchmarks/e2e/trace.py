"""Per-layer wrapper trace, installed from outside the program.

A traced run rebinds a fixed table of public entry points of ``repro`` to
timing wrappers (on the owning class or module, and on every ``repro.*``
module that imported a function by name).  Each call becomes a span: name,
start, end, parent (thread-local stack) and the id of the benchmark op that
caused it.  Spans stay in memory until the workload takes them.  A layer's
``busy_s`` is *self* time - the span's duration minus the part its child
spans cover - with ``calls`` and ``bytes`` counted at the same boundary.
Generators are timed over iteration, not over the call that creates them.

A target that no longer resolves is reported as ``None`` (with a warning),
never an error: a later refactor must not be able to break the end-to-end
run.  End-to-end numbers are never taken from a traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

CLK_TCK = os.sysconf("SC_CLK_TCK")


class Span:
    __slots__ = ("name", "t0", "t1", "dur", "child", "parent", "op", "nbytes", "_at")

    def __init__(self, name: str, parent: Optional["Span"], op: Optional[str]) -> None:
        self.name = name
        self.t0 = self.t1 = 0.0
        self.dur = 0.0      # time inside the callee (sum over resumes, for generators)
        self.child = 0.0    # part of ``dur`` covered by child spans
        self.parent = parent
        self.op = op
        self.nbytes = 0
        self._at = 0.0


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()

    # -- op ids -----------------------------------------------------------------
    def set_op(self, op: Optional[str]) -> None:
        self._local.op = op

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- span lifecycle -----------------------------------------------------------
    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, getattr(self._local, "op", None))
        self.spans.append(span)
        return span

    def resume(self, span: Span) -> None:
        self._stack().append(span)
        span._at = time.perf_counter()
        if not span.t0:
            span.t0 = span._at

    def suspend(self, span: Span) -> None:
        now = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elapsed = now - span._at
        span.dur += elapsed
        span.t1 = now
        if span.parent is not None:
            span.parent.child += elapsed

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield None
            return
        span = self.open(name)
        self.resume(span)
        try:
            yield span
        finally:
            self.suspend(span)

    # -- readout ------------------------------------------------------------------
    def take(self) -> Tuple[List[Span], Dict[str, float]]:
        """Hand over (and forget) everything recorded so far."""
        spans, counters = self.spans, dict(self.counters)
        self.spans, self.counters = [], defaultdict(float)
        return spans, counters


def aggregate(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: self time, wall time, calls and bytes."""
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"busy_s": 0.0, "wall_s": 0.0, "calls": 0, "bytes": 0}
    )
    for s in spans:
        row = out[s.name]
        row["busy_s"] += s.dur - s.child
        row["wall_s"] += s.dur
        row["calls"] += 1
        row["bytes"] += s.nbytes
    return dict(out)


def spans_to_json(spans: List[Span]) -> List[dict]:
    ids = {id(s): i for i, s in enumerate(spans)}
    return [
        {"id": i, "name": s.name, "start": s.t0, "end": s.t1, "dur": s.dur,
         "parent": ids.get(id(s.parent)), "op": s.op, "bytes": s.nbytes}
        for i, s in enumerate(spans)
    ]


# -- wrappers ---------------------------------------------------------------------
def _wrap(rec: Recorder, name: str, fn: Callable, nbytes, after) -> Callable:
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not rec.active:
                yield from it
                return
            span = rec.open(name)
            while True:
                rec.resume(span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.suspend(span)
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        span = rec.open(name)
        rec.resume(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.suspend(span)
        try:
            if nbytes is not None:
                span.nbytes = nbytes(args, kwargs, result)
            if after is not None:
                after(rec.counters, args, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            pass  # a changed signature loses a count, never the run
        return result
    return wrapper


def _count(key_all: str, key_hit: str, hit: Callable) -> Callable:
    def after(counters, args, result):
        counters[key_all] += 1
        if hit(result):
            counters[key_hit] += 1
    return after


def _add(fields: Dict[str, Callable]) -> Callable:
    def after(counters, args, result):
        for key, get in fields.items():
            counters[key] += get(args, result)
    return after


def _chunk_len(args, kwargs, _result) -> int:
    # ChunkLog.append(self, fp, data=None, size=None)
    data = kwargs.get("data", args[2] if len(args) > 2 else None)
    return len(data) if data is not None else int(kwargs.get("size") or 0)


#: The fixed target table: span name, module, attribute path, bytes, counter hook.
TARGETS: List[tuple] = [
    ("client.read_file", "repro.client.backup_client", "BackupEngine.read_file",
     lambda a, k, r: r[0].size, None),
    ("client.restore_file", "repro.client.backup_client", "BackupEngine.restore_file",
     lambda a, k, r: a[1].metadata.size, None),
    ("chunking.cut_points", "repro.chunking.cdc", "ContentDefinedChunker.cut_points",
     lambda a, k, r: len(a[1]), _add({"chunking.chunks": lambda a, r: len(r)})),
    ("core.fingerprint.fingerprint", "repro.core.fingerprint", "fingerprint",
     lambda a, k, r: len(a[0]), None),
    ("core.preliminary_filter.preload", "repro.core.preliminary_filter",
     "PreliminaryFilter.preload", None, None),
    ("core.preliminary_filter.check", "repro.core.preliminary_filter",
     "PreliminaryFilter.check", None,
     _count("filter.checks", "filter.hits", lambda r: r.value == "duplicate")),
    ("storage.chunk_log.append", "repro.storage.chunk_log", "PersistentChunkLog.append",
     _chunk_len, None),
    ("storage.chunk_log.replay", "repro.storage.chunk_log", "ChunkLog.replay", None, None),
    ("storage.chunk_log.clear", "repro.storage.chunk_log", "PersistentChunkLog.clear",
     None, None),
    ("durability.crc.crc32c", "repro.durability.crc", "crc32c",
     lambda a, k, r: len(a[0]), None),
    ("durability.framing.frame_record", "repro.durability.framing", "frame_record",
     lambda a, k, r: len(a[0]), None),
    ("durability.framing.scan_frames", "repro.durability.framing", "scan_frames",
     lambda a, k, r: len(a[0]), None),
    ("core.tpds.dedup1_backup", "repro.core.tpds", "TwoPhaseDeduplicator.dedup1_backup",
     None, None),
    ("core.tpds.dedup2", "repro.core.tpds", "TwoPhaseDeduplicator.dedup2", None, None),
    ("core.sil.run", "repro.core.sil", "SequentialIndexLookup.run", None,
     _add({"sil.distinct": lambda a, r: r.fingerprints_distinct,
           "sil.duplicates": lambda a, r: r.duplicate_fingerprints})),
    ("core.siu.run", "repro.core.siu", "SequentialIndexUpdate.run", None,
     _add({"siu.registered": lambda a, r: r.fingerprints_registered})),
    ("core.disk_index.lookup", "repro.core.disk_index", "DiskIndex.lookup_with_probes",
     lambda a, k, r: r[1] * a[0].bucket_bytes, None),
    ("core.disk_index.scale_capacity", "repro.core.disk_index", "DiskIndex.scale_capacity",
     lambda a, k, r: r.n_buckets * r.bucket_bytes, None),
    ("storage.container.add", "repro.storage.container", "ContainerWriter.add", None, None),
    ("storage.container.seal", "repro.storage.container", "ContainerWriter.seal", None, None),
    ("storage.container.serialize", "repro.storage.container", "Container.serialize",
     lambda a, k, r: len(r), None),
    ("storage.container.deserialize", "repro.storage.container", "Container.deserialize",
     lambda a, k, r: len(a[2]), None),
    ("storage.file_repository.store", "repro.storage.file_repository",
     "FileChunkRepository.store", lambda a, k, r: a[1].capacity, None),
    ("storage.tiered.write_image", "repro.storage.tiered",
     "TieredChunkRepository.write_image", lambda a, k, r: len(a[2]), None),
    ("storage.tiered.fetch", "repro.storage.tiered", "TieredChunkRepository.fetch",
     lambda a, k, r: r.data_bytes, None),
    ("storage.lpc.lookup", "repro.storage.lpc", "LocalityPreservedCache.lookup", None,
     _count("lpc.lookups", "lpc.hits", lambda r: r is not None)),
    ("server.chunk_store.read_chunk", "repro.server.chunk_store", "ChunkStore.read_chunk",
     lambda a, k, r: len(r), None),
    ("system.vault.open", "repro.system.vault", "DebarVault.__init__", None, None),
    ("system.vault.backup", "repro.system.vault", "DebarVault.backup", None, None),
    ("system.vault.restore", "repro.system.vault", "DebarVault.restore", None, None),
    ("system.vault.verify", "repro.system.vault", "DebarVault.verify", None, None),
    ("system.vault.runs", "repro.system.vault", "DebarVault.runs", None, None),
    ("durability.scrubber.run", "repro.durability.scrubber", "Scrubber.run", None,
     _add({"scrub.records_checked": lambda a, r: r.records_checked})),
    ("durability.fsshim.write", "repro.durability.fsshim", "LocalFs.write_file",
     lambda a, k, r: len(a[2]), None),
    ("durability.fsshim.write", "repro.durability.fsshim", "LocalFs.append_file",
     lambda a, k, r: len(a[2]), None),
    ("durability.fsshim.write", "repro.durability.fsshim", "LocalFs.pwrite",
     lambda a, k, r: len(a[3]), None),
    ("os.fsync", "os", "fsync", None, None),
    ("net.client.call", "repro.net.client", "NetClient.call",
     lambda a, k, r: (len(a[2]) if len(a) > 2 else 0) + len(r), None),
    ("net.client.call_many", "repro.net.client", "NetClient.call_many",
     lambda a, k, r: sum(len(p) for _, p in a[1]) + sum(len(x) for x in r), None),
    ("net.framing.decode_frame", "repro.net.framing", "decode_frame",
     lambda a, k, r: len(a[0]), None),
]


class Tracing:
    """Installed wrappers + the recorder they write to."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.unresolved: List[str] = []
        self._undo: List[tuple] = []
        self._bridge = None

    # -- install / uninstall ---------------------------------------------------------
    def install(self) -> "Tracing":
        import repro.cli  # noqa: F401  (pulls in every module that imports targets by name)

        for name, module_name, path, nbytes, after in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                print(f"warning: trace target {module_name}:{path} does not resolve; "
                      f"{name}.* reported as null", file=sys.stderr)
                self.unresolved.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(self.recorder, name, raw.__func__, nbytes, after))
            else:
                wrapped = _wrap(self.recorder, name, raw, nbytes, after)
            self._bind(owner, attr, raw, wrapped)
            if inspect.ismodule(owner) and module_name.startswith("repro."):
                # ``from x import f`` copies: rebind wherever the original landed.
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or mod is owner or not mod_name.startswith("repro"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._bind(mod, key, raw, wrapped)
        self._install_span_bridge()
        return self

    def _bind(self, owner, attr: str, raw, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def _install_span_bridge(self) -> None:
        """Route the program's own ``trace_span("catalog")`` into the span
        stack (the catalog commit has no function boundary to wrap), and keep
        the program's wall tree for the one-off cross-check."""
        from repro.telemetry import tracing as t

        recorder = self.recorder

        class Bridge(t.Tracer):
            @contextmanager
            def span(self, name, sim_clock=None, **attrs):
                with t.Tracer.span(self, name, sim_clock=sim_clock, **attrs) as s:
                    if name == "catalog":
                        with recorder.span("system.vault.catalog"):
                            yield s
                    else:
                        yield s

        self._previous_tracer = t.get_tracer()
        self._bridge = t.set_tracer(Bridge())

    def uninstall(self) -> None:
        from repro.telemetry import tracing as t

        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()
        if self._bridge is not None:
            t.set_tracer(self._previous_tracer)
            self._bridge = None

    # -- the program's own wall tree (cross-check only) -------------------------------
    def wall_tree_sums(self) -> Dict[str, float]:
        """Wall seconds per ``trace_span`` name since the last call (only
        while installed)."""
        sums: Dict[str, float] = defaultdict(float)

        def walk(span) -> None:
            sums[span.name] += span.wall
            for c in span.children:
                walk(c)

        for root in self._bridge.roots:
            walk(root)
        self._bridge.reset()
        return dict(sums)


# -- other processes ----------------------------------------------------------------
def proc_cpu(pid: int) -> Tuple[float, float]:
    """(utime_s, stime_s) of a live process from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return int(fields[11]) / CLK_TCK, int(fields[12]) / CLK_TCK


def proc_peak_rss_mib(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def metrics_sum(metrics: List[dict], family: str, field: str = "value", **labels: str) -> float:
    """Sum one family of a telemetry ``metrics`` section (a daemon's
    ``--telemetry-json`` dump or ``registry.snapshot_metrics()``) over the
    samples whose labels match; 0.0 when the family was never touched."""
    total = 0.0
    for metric in metrics:
        if metric["name"] != family:
            continue
        for sample in metric["samples"]:
            if all(sample["labels"].get(k) == v for k, v in labels.items()):
                total += sample.get(field, 0.0)
    return total


#: Server-side request types whose handling time is reported.
SERVER_TYPES = (
    "session_begin", "filter_query", "chunk_append", "meta_put", "session_commit",
    "meta_get", "chunk_read", "runs", "verify",
)


def layer_metrics(
    agg: Dict[str, Dict[str, float]],
    counters: Dict[str, float],
    unresolved: Iterable[str],
    extra: Dict[str, Optional[float]],
) -> Dict[str, Optional[float]]:
    """The per-layer metric set of one traced cycle, by declared name."""
    unresolved = set(unresolved)
    out: Dict[str, Optional[float]] = {}

    def val(span: str, field: str) -> Optional[float]:
        if span in unresolved:
            return None
        return agg[span][field] if span in agg else 0.0

    def layer(span: str, *fields: str) -> None:
        for field in fields or ("busy_s", "calls", "bytes"):
            out[f"{span}.{field}"] = val(span, field)

    def share(hit: str, total: str, span: str) -> Optional[float]:
        if span in unresolved:
            return None
        return counters.get(hit, 0.0) / counters[total] if counters.get(total) else 0.0

    layer("client.read_file")
    layer("client.restore_file")
    layer("chunking.cut_points")
    wall = val("chunking.cut_points", "wall_s")
    out["chunking.mibps"] = (
        wall if not wall else val("chunking.cut_points", "bytes") / (1 << 20) / wall
    )
    out["chunking.chunks"] = counters.get("chunking.chunks", 0.0)
    layer("core.fingerprint.fingerprint")
    layer("core.preliminary_filter.preload", "busy_s")
    layer("core.preliminary_filter.check", "busy_s", "calls")
    out["core.preliminary_filter.hit_share"] = share(
        "filter.hits", "filter.checks", "core.preliminary_filter.check")
    layer("storage.chunk_log.append")
    layer("storage.chunk_log.replay", "busy_s")
    layer("storage.chunk_log.clear", "busy_s")
    layer("durability.crc.crc32c")
    layer("durability.framing.frame_record", "busy_s")
    layer("durability.framing.scan_frames", "busy_s")
    layer("core.tpds.dedup1_backup", "busy_s")
    layer("core.tpds.dedup2", "busy_s")
    layer("core.sil.run", "busy_s")
    out["core.sil.duplicate_share"] = share("sil.duplicates", "sil.distinct", "core.sil.run")
    layer("core.siu.run", "busy_s")
    out["core.siu.registered"] = counters.get("siu.registered", 0.0)
    layer("core.disk_index.lookup")
    layer("core.disk_index.scale_capacity")
    layer("storage.container.add", "busy_s")
    layer("storage.container.serialize", "busy_s")
    layer("storage.container.deserialize")
    out["storage.container.sealed"] = val("storage.container.seal", "calls")
    layer("storage.file_repository.store", "busy_s", "bytes")
    layer("storage.tiered.write_image")
    layer("storage.tiered.fetch")
    layer("server.chunk_store.read_chunk")
    out["server.chunk_store.lpc_hit_share"] = share("lpc.hits", "lpc.lookups", "storage.lpc.lookup")
    for entry in ("open", "backup", "restore", "verify", "catalog", "runs"):
        layer(f"system.vault.{entry}", "busy_s")
    layer("durability.scrubber.run", "busy_s")
    out["durability.scrubber.records_checked"] = counters.get("scrub.records_checked", 0.0)
    out["durability.fsshim.write_calls"] = val("durability.fsshim.write", "calls")
    out["durability.fsshim.bytes_written"] = val("durability.fsshim.write", "bytes")
    out["durability.fsshim.fsync_calls"] = val("os.fsync", "calls")
    layer("net.client.call")
    layer("net.client.call_many")
    layer("net.framing.decode_frame", "busy_s")
    out.update(extra)
    return out
