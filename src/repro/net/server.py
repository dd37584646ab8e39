"""``repro serve`` — the vault behind the wire protocol (DESIGN.md §9, §12).

:class:`VaultProtocolServer` is a **single-process asyncio event loop** on
the :class:`~repro.net.aioserver.AsyncFrameServer` skeleton (bind,
lifecycle, task tracking, frame I/O — shared with the front-door router).
Each connection is a lightweight *frame pump* coroutine; every decoded
frame becomes an independent in-flight request, so one socket can carry
many request ids concurrently (connection multiplexing).  The blocking
vault pipeline still runs on a small worker-thread executor behind the
one vault lock — ``repro.system`` is untouched — but the loop keeps
accepting, parsing and answering frames for hundreds of other streams
while it grinds.

The server owns the handler table, the session store, the idempotency
cache, graceful drain, telemetry, and the admission-control policy
(DESIGN.md §12.2):

- **max in-flight requests** — past the cap a frame is answered with an
  immediate ``ERROR {"error": "Busy"}`` shed (never executed, never
  cached); clients treat ``Busy`` as retryable with backoff.
- **max buffered session bytes** — chunk payloads parked in open
  sessions are bounded vault-wide; an append that would exceed the bound
  is shed ``Busy`` (a commit in flight will release memory).
- **per-tenant authentication + quota/QoS** — when tenants are
  configured, ``HELLO`` must present the tenant's token; sessions are
  owned by the authenticated tenant, each tenant's buffered bytes are
  capped by its quota (hard ``QuotaError``), and each tenant's in-flight
  requests by a fair share of the global cap.

**Sessions.**  A backup session (``SESSION_BEGIN`` .. ``SESSION_COMMIT``)
lives in the *server*, keyed by session id, not in the connection — a
client that lost its connection mid-backup reconnects and continues the
same session.  Abandoned sessions no longer leak: an idle-TTL sweep
expires them (``net.sessions_expired``) and ``SESSION_ABORT`` discards
one explicitly, releasing the buffered payload bytes either way.

**Idempotency.**  Every mutating request type is answered through a
response cache keyed by request id: a retried frame (duplicate on the
wire, or a client resend after a drop/timeout) returns the cached
response instead of executing twice (DESIGN.md §9.3).
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.preliminary_filter import FilterDecision, PreliminaryFilter
from repro.director.metadata import FileMetadata
from repro.net import messages as m
from repro.durability.errors import MediaError
from repro.net.aioserver import AsyncFrameServer, _error_frame
from repro.net.framing import Frame, ProtocolError
from repro.archive.store import ArchiveStore
from repro.replication.store import ReplicaStore
from repro.system.catalog import mirrored_run_count
from repro.system.vault import DebarVault, VaultError
from repro.telemetry.clock import wall_now
from repro.telemetry.registry import MetricsRegistry, get_registry

#: Request types whose responses are cached by request id (the mutators).
IDEMPOTENT_CACHED = frozenset({
    m.SESSION_BEGIN,
    m.FILTER_QUERY,
    m.CHUNK_APPEND,
    m.META_PUT,
    m.SESSION_COMMIT,
    m.SESSION_ABORT,
    m.DEDUP2,
    m.GC,
    m.FORGET,
    m.CONTAINER_PUSH,
    m.CATALOG_PUSH,
    m.DELTA_PUSH,
    m.ARCHIVE_MERGE,
})

#: Response-cache capacity (entries); old responses fall off the end.
#: Sized for hundreds of concurrent streams — an entry is one response
#: frame (bitmaps, acks), not chunk payload.
RESPONSE_CACHE_SIZE = 32768

#: Admission-control defaults (overridable per daemon / ``repro serve``).
DEFAULT_MAX_INFLIGHT = 64
DEFAULT_MAX_BUFFERED_BYTES = 256 * 1024 * 1024
DEFAULT_SESSION_TTL = 900.0


class BusyError(Exception):
    """Admission control shed this request; the client should retry."""


class QuotaError(VaultError):
    """A tenant exceeded its configured buffered-bytes quota."""


class AuthError(Exception):
    """Missing or wrong tenant credentials on a tenanted daemon."""


class TenantConfig:
    """One tenant: its shared-secret token and buffered-bytes quota."""

    def __init__(self, name: str, token: str, quota_bytes: Optional[int] = None):
        self.name = name
        self.token = token
        self.quota_bytes = quota_bytes

    @classmethod
    def parse(cls, spec: str) -> "TenantConfig":
        """``NAME=TOKEN[:QUOTA_BYTES]`` (the ``repro serve --tenant`` form)."""
        name, sep, rest = spec.partition("=")
        if not sep or not name or not rest:
            raise ValueError(f"expected NAME=TOKEN[:QUOTA_BYTES], got {spec!r}")
        token, sep, quota = rest.partition(":")
        if not token:
            raise ValueError(f"tenant {name!r} has an empty token")
        return cls(name, token, int(quota) if sep and quota else None)


class _RemoteSession:
    """Server-side state of one remote backup session."""

    def __init__(
        self,
        session_id: int,
        job: str,
        vault: DebarVault,
        tenant: Optional[str] = None,
    ) -> None:
        self.session_id = session_id
        self.job = job
        self.tenant = tenant
        self.filtering = vault.filtering_for(job)
        self.filter = PreliminaryFilter(vault.tpds.filter_capacity)
        if self.filtering:
            self.filter.preload(self.filtering)
        #: Payloads received for admitted chunks (fp -> bytes).  Keyed by
        #: fingerprint, so a replayed CHUNK_APPEND cannot duplicate data.
        self.payloads: Dict[bytes, bytes] = {}
        #: Bytes currently parked in :attr:`payloads` (admission control).
        self.buffered_bytes = 0
        #: Completed files in arrival order: (metadata, [(fp, size)...]).
        self.files: List[Tuple[FileMetadata, List[Tuple[bytes, int]]]] = []
        self.committed_run: Optional[dict] = None
        #: Idle clock for the TTL sweep (monotonic seconds).
        self.last_used = time.monotonic()

    def touch(self) -> None:
        self.last_used = time.monotonic()

    def query(self, entries: List[Tuple[bytes, int]]) -> List[bool]:
        """Answer one batched preliminary-filter query in stream order."""
        return [self.filter.check(fp) is FilterDecision.NEW for fp, _ in entries]

    def stream_files(self):
        """The buffered backup stream, payloads attached where transferred."""
        for metadata, sized in self.files:
            yield metadata, [
                (fp, size, self.payloads.get(fp)) for fp, size in sized
            ]


class VaultProtocolServer(AsyncFrameServer):
    """The vault daemon: one event loop, many multiplexed streams.

    The loop thread owns frame parsing, admission, response writes and all
    in-flight bookkeeping; vault work — the handler table, sessions, the
    idempotency cache — runs on a bounded worker-thread executor behind
    :attr:`vault_lock`.  ``shutdown_gracefully()`` is the drain path on
    top of the skeleton's ``serve_forever()`` / ``shutdown()`` /
    ``server_close()``.
    """

    def __init__(
        self,
        vault: DebarVault,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        node_name: str = "node",
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_buffered_bytes: int = DEFAULT_MAX_BUFFERED_BYTES,
        session_ttl: float = DEFAULT_SESSION_TTL,
        tenants: Optional[List[TenantConfig]] = None,
        executor_workers: int = 8,
    ) -> None:
        super().__init__(
            host, port, workers=executor_workers, worker_name="repro-serve-worker"
        )
        #: Per-tenant in-flight requests (loop thread only, no lock needed).
        self._tenant_inflight: Dict[Optional[str], int] = {}
        self.vault = vault
        self.vault_lock = threading.Lock()
        self.node_name = node_name
        self.max_inflight = max_inflight
        self.max_buffered_bytes = max_buffered_bytes
        self.session_ttl = session_ttl
        self.tenants: Dict[str, TenantConfig] = {
            t.name: t for t in (tenants or [])
        }
        #: Per-tenant fair share of the in-flight cap (QoS): one tenant
        #: hammering the daemon cannot starve the others.
        self.tenant_max_inflight = (
            max(1, max_inflight // max(1, len(self.tenants)))
            if self.tenants
            else max_inflight
        )
        #: Containers pushed by peer nodes (vault/replicas/<origin>/...).
        self.replica_store = ReplicaStore(
            Path(vault.root) / "replicas",
            container_bytes=vault.container_bytes,
            fs=vault.fs,
        )
        self._sessions: Dict[int, _RemoteSession] = {}
        self._next_session = 1
        #: Vault-wide buffered session payload bytes (under vault_lock).
        self._buffered_bytes = 0
        #: Per-tenant buffered session payload bytes (under vault_lock).
        self._tenant_buffered: Dict[str, int] = {}
        self._response_cache: "OrderedDict[int, Frame]" = OrderedDict()
        self._cache_lock = threading.Lock()
        #: The authenticated tenant of the executor thread currently
        #: dispatching (set before calling into _HANDLERS).
        self._local = threading.local()
        # Graceful-drain state: in-flight request count + drain flag.
        self._active_cond = threading.Condition()
        self._active_requests = 0
        self._draining = False
        registry = registry if registry is not None else get_registry()
        self.registry = registry
        #: Delta chains pushed by origin vaults (vault/archive/<origin>/...).
        #: Created unconditionally, like the replica store — a node serves
        #: what it holds; the --archive role only adds retention.
        self.archive_store = ArchiveStore(
            Path(vault.root) / "archive", registry=registry
        )
        #: Outbound shippers, attached by the CLI when --replicate-to /
        #: --archive-to is given; None on a standalone daemon.
        self.replicator = None
        self.archive_shipper = None
        #: Retention-evaluating director (repro.director) for the archive
        #: role, attached by the CLI when --archive --retention is given.
        self.archive_director = None
        self._t_bytes_in = registry.counter(
            "net.bytes_received", "protocol bytes received, by role"
        ).labels(role="server")
        self._t_bytes_out = registry.counter(
            "net.bytes_sent", "protocol bytes sent, by role"
        ).labels(role="server")
        self._t_requests = registry.counter(
            "net.requests", "protocol requests handled, by message type"
        )
        self._t_replays = registry.counter(
            "net.request_replays", "requests answered from the idempotency cache"
        ).labels()
        self._t_latency = registry.histogram(
            "net.rpc_latency", "server-side request handling seconds, by type"
        )
        self._t_connections = registry.counter(
            "net.connections", "connections accepted by the daemon"
        ).labels()
        self._t_sessions_expired = registry.counter(
            "net.sessions_expired",
            "abandoned sessions reclaimed by the idle-TTL sweep",
        ).labels()
        self._t_sessions_aborted = registry.counter(
            "net.sessions_aborted", "sessions discarded by SESSION_ABORT"
        ).labels()
        self._t_busy = registry.counter(
            "net.busy_rejections", "requests shed with ERROR/Busy by admission"
        ).labels()
        self._t_auth_failures = registry.counter(
            "net.auth_failures", "connections refused for bad tenant credentials"
        ).labels()
        self._t_inflight = registry.gauge(
            "net.inflight_requests", "requests currently executing"
        ).labels()
        self._t_buffered = registry.gauge(
            "net.session_buffered_bytes",
            "chunk payload bytes parked in open sessions",
        ).labels()
        self._t_replica_served = registry.counter(
            "repl.chunks_served_from_replicas",
            "chunk reads answered from the replica store (failover serving)",
        ).labels()
        self._t_pushes = registry.counter(
            "repl.containers_received", "container images accepted by push"
        )

    # -- graceful shutdown --------------------------------------------------------
    def begin_request(self) -> bool:
        """Register one in-flight request; False once draining started."""
        with self._active_cond:
            if self._draining:
                return False
            self._active_requests += 1
            self._t_inflight.set(self._active_requests)
            return True

    def end_request(self) -> None:
        with self._active_cond:
            self._active_requests -= 1
            self._t_inflight.set(self._active_requests)
            self._active_cond.notify_all()

    def shutdown_gracefully(self, timeout: Optional[float] = 30.0) -> bool:
        """Refuse new work, finish in-flight requests, drain the attached
        shippers, then close.  Returns True on a clean drain,
        False when the timeout forced the exit (sockets still close).

        The drain flag is raised **before** waiting (a busy persistent
        connection must not keep admitting frames while we wait for the
        in-flight count to reach zero — that drain would only ever end by
        timeout), and the shippers are drained **after** the in-flight
        wait (an in-flight commit may seal containers, and record runs,
        that still owe shipment).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._active_cond:
            self._draining = True
        loop = self._loop
        if loop is not None:
            # Close the listener; live connections finish what they started.
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self._close_listener)
        drained = True
        with self._active_cond:
            while self._active_requests > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    drained = False
                    break
                self._active_cond.wait(
                    0.1 if remaining is None else min(0.1, remaining)
                )
        for shipper in (self.replicator, self.archive_shipper):
            if shipper is not None:
                remaining = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                drained = shipper.close(drain=True, timeout=remaining) and drained
        self.shutdown()
        self.server_close()
        return drained

    def _close_listener(self) -> None:
        if self._aio_server is not None:
            self._aio_server.close()

    # -- idempotency cache --------------------------------------------------------
    def cached_response(self, request_id: int) -> Optional[Frame]:
        with self._cache_lock:
            return self._response_cache.get(request_id)

    def cache_response(self, request_id: int, frame: Frame) -> None:
        with self._cache_lock:
            self._response_cache[request_id] = frame
            while len(self._response_cache) > RESPONSE_CACHE_SIZE:
                self._response_cache.popitem(last=False)

    # -- authentication -----------------------------------------------------------
    def authenticate(self, hello_doc: dict) -> Optional[str]:
        """Validate a HELLO against the tenant table.

        Returns the authenticated tenant name (None when the daemon is
        untenanted); raises :class:`AuthError` on a miss.
        """
        if not self.tenants:
            return None
        name = str(hello_doc.get("client", ""))
        tenant = self.tenants.get(name)
        if tenant is None or str(hello_doc.get("token", "")) != tenant.token:
            self._t_auth_failures.inc()
            raise AuthError(f"unknown tenant or bad token for {name!r}")
        return name

    # -- session lifecycle --------------------------------------------------------
    def _discard_session(self, session: _RemoteSession) -> int:
        """Drop one session's buffered payloads (caller holds vault_lock)."""
        freed = session.buffered_bytes
        self._buffered_bytes -= freed
        if session.tenant is not None:
            self._tenant_buffered[session.tenant] = (
                self._tenant_buffered.get(session.tenant, 0) - freed
            )
        self._t_buffered.set(self._buffered_bytes)
        self._sessions.pop(session.session_id, None)
        return freed

    def expire_idle_sessions(self, now: Optional[float] = None) -> int:
        """Reclaim sessions idle past the TTL; returns how many died.

        Called periodically by the sweeper task; callable directly (with a
        forced ``now``) from tests.
        """
        if self.session_ttl is None or self.session_ttl <= 0:
            return 0
        now = time.monotonic() if now is None else now
        expired = 0
        with self.vault_lock:
            for session in list(self._sessions.values()):
                if now - session.last_used > self.session_ttl:
                    self._discard_session(session)
                    expired += 1
        if expired:
            self._t_sessions_expired.inc(expired)
        return expired

    def open_sessions(self) -> int:
        with self.vault_lock:
            return len(self._sessions)

    # -- dispatch -----------------------------------------------------------------
    def handle_request_frame(
        self, frame: Frame, tenant: Optional[str] = None
    ) -> Frame:
        """Execute one request frame; returns the response frame.

        ``tenant`` is the connection's authenticated tenant; it is parked
        in a thread-local so the (fixed-signature, monkeypatchable)
        handlers can read it.
        """
        handler = _HANDLERS.get(frame.msg_type)
        if handler is None:
            raise ProtocolError(f"unknown message type {m.msg_name(frame.msg_type)}")
        if frame.msg_type in IDEMPOTENT_CACHED:
            cached = self.cached_response(frame.request_id)
            if cached is not None:
                self._t_replays.inc()
                return cached
        self._local.tenant = tenant
        t0 = wall_now()
        try:
            msg_type, payload = handler(self, frame.payload)
        except BusyError as exc:
            # Admission shed: immediate, retryable, never cached.
            self._t_busy.inc()
            return _error_frame(frame.request_id, "Busy", str(exc))
        except (VaultError, MediaError, KeyError, ValueError, OSError) as exc:
            # Application-level failure: report it, keep the connection.
            return _error_frame(frame.request_id, type(exc).__name__, str(exc))
        finally:
            self._t_latency.labels(type=m.msg_name(frame.msg_type)).observe(
                wall_now() - t0
            )
        response = Frame(msg_type, frame.request_id, payload)
        if frame.msg_type in IDEMPOTENT_CACHED:
            self.cache_response(frame.request_id, response)
        return response

    # -- handlers -----------------------------------------------------------------
    def _on_hello(self, payload: bytes) -> Tuple[int, bytes]:
        doc = m.decode_json(payload)
        return m.HELLO_OK, m.encode_json({
            "server": "repro",
            "vault": str(self.vault.root),
            "client": doc.get("client", ""),
        })

    def _on_ping(self, payload: bytes) -> Tuple[int, bytes]:
        return m.PONG, payload

    def _on_session_begin(self, payload: bytes) -> Tuple[int, bytes]:
        doc = m.decode_json(payload)
        job = doc.get("job", "")
        if not job:
            raise VaultError("job name required")
        tenant = getattr(self._local, "tenant", None)
        with self.vault_lock:
            session_id = self._next_session
            self._next_session += 1
            session = _RemoteSession(session_id, job, self.vault, tenant=tenant)
            self._sessions[session_id] = session
        return m.SESSION_OK, m.encode_json({
            "session": session_id,
            "filtering_fingerprints": len(session.filtering or ()),
        })

    def _session(self, session_id: int) -> _RemoteSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise VaultError(f"no open session {session_id}")
        session.touch()
        return session

    def _on_filter_query(self, payload: bytes) -> Tuple[int, bytes]:
        session_id, offset = m._take_u32(payload, 0)
        entries, _ = m.decode_sized_fps(payload, offset)
        with self.vault_lock:
            session = self._session(session_id)
            decisions = session.query(entries)
        return m.FILTER_RESULT, m.encode_bitmap(decisions)

    def _on_chunk_append(self, payload: bytes) -> Tuple[int, bytes]:
        session_id, offset = m._take_u32(payload, 0)
        chunks, _ = m.decode_chunk_batch(payload, offset)
        with self.vault_lock:
            session = self._session(session_id)
            new_bytes = sum(
                len(data) for fp, data in chunks if fp not in session.payloads
            )
            if (
                new_bytes
                and self._buffered_bytes + new_bytes > self.max_buffered_bytes
            ):
                raise BusyError(
                    f"session buffers full ({self._buffered_bytes} of "
                    f"{self.max_buffered_bytes} bytes in use)"
                )
            if session.tenant is not None:
                quota = self.tenants[session.tenant].quota_bytes
                used = self._tenant_buffered.get(session.tenant, 0)
                if quota is not None and used + new_bytes > quota:
                    raise QuotaError(
                        f"tenant {session.tenant!r} over quota "
                        f"({used + new_bytes} > {quota} buffered bytes)"
                    )
            appended = 0
            for fp, data in chunks:
                if fp not in session.payloads:
                    appended += 1
                    session.buffered_bytes += len(data)
                session.payloads[fp] = data
            self._buffered_bytes += new_bytes
            if session.tenant is not None:
                self._tenant_buffered[session.tenant] = (
                    self._tenant_buffered.get(session.tenant, 0) + new_bytes
                )
            self._t_buffered.set(self._buffered_bytes)
        return m.APPEND_OK, m.encode_json({"appended": appended, "received": len(chunks)})

    def _on_meta_put(self, payload: bytes) -> Tuple[int, bytes]:
        session_id, offset = m._take_u32(payload, 0)
        meta_len, offset = m._take_u32(payload, offset)
        meta_blob, offset = m._take(payload, offset, meta_len)
        meta = m.decode_json(meta_blob)
        sized, _ = m.decode_sized_fps(payload, offset)
        metadata = FileMetadata(
            path=str(meta.get("path", "<remote>")),
            size=int(meta.get("size", sum(s for _, s in sized))),
            mode=int(meta.get("mode", 0o644)),
            mtime=float(meta.get("mtime", 0.0)),
        )
        with self.vault_lock:
            session = self._session(session_id)
            session.files.append((metadata, sized))
            files = len(session.files)
        return m.META_OK, m.encode_json({"files": files})

    def _on_session_commit(self, payload: bytes) -> Tuple[int, bytes]:
        doc = m.decode_json(payload)
        session_id = int(doc.get("session", 0))
        with self.vault_lock:
            session = self._session(session_id)
            if session.committed_run is None:
                run = self.vault.backup_stream(
                    session.job,
                    session.stream_files(),
                    timestamp=doc.get("timestamp"),
                    # Replay the decisions the client acted on, even if
                    # another run of the job committed since session begin.
                    filtering=session.filtering if session.filtering is not None else [],
                )
                session.committed_run = {
                    "run_id": run.run_id,
                    "job": run.job,
                    "timestamp": run.timestamp,
                    "files": len(run.files),
                    "logical_bytes": run.logical_bytes,
                    "transferred_bytes": run.transferred_bytes,
                }
            summary = session.committed_run
            self._discard_session(session)
        return m.RUN_OK, m.encode_json(summary)

    def _on_session_abort(self, payload: bytes) -> Tuple[int, bytes]:
        doc = m.decode_json(payload)
        session_id = int(doc.get("session", 0))
        with self.vault_lock:
            session = self._sessions.get(session_id)
            freed = self._discard_session(session) if session is not None else 0
        if session is not None:
            self._t_sessions_aborted.inc()
        # Idempotent: aborting an already-gone session is a success.
        return m.ABORT_OK, m.encode_json({
            "session": session_id,
            "discarded": session is not None,
            "discarded_bytes": freed,
        })

    def _on_dedup2(self, payload: bytes) -> Tuple[int, bytes]:
        doc = m.decode_json(payload)
        force = doc.get("force_siu")
        with self.vault_lock:
            stats = self.vault.tpds.dedup2(force_siu=force)
        return m.DEDUP2_OK, m.encode_json({
            "new_chunks_stored": stats.new_chunks_stored,
            "new_bytes_stored": stats.new_bytes_stored,
            "duplicate_chunks": stats.duplicate_chunks,
            "containers_written": stats.containers_written,
            "siu_performed": stats.siu_performed,
        })

    def _on_chunk_read(self, payload: bytes) -> Tuple[int, bytes]:
        fps, _ = m.decode_fps(payload)
        chunks: List[Tuple[bytes, bytes]] = []
        with self.vault_lock:
            for fp in fps:
                try:
                    chunks.append((fp, self.vault.chunk_store.read_chunk(fp)))
                except KeyError:
                    # Not in the local store: serve it out of the replica
                    # store if some peer replicated it here (failover reads
                    # keep working after the chunk's origin node died).
                    chunks.append((fp, self.replica_store.read_chunk(fp)))
                    self._t_replica_served.inc()
        return m.CHUNK_DATA, m.encode_chunk_batch(chunks)

    def _on_meta_get(self, payload: bytes) -> Tuple[int, bytes]:
        doc = m.decode_json(payload)
        run_id = int(doc["run_id"])
        # Run ids are per-vault: two nodes can both hold a run 3.  A
        # cluster caller therefore qualifies the lookup with the job name,
        # and a mismatched run answers "not here" instead of handing out
        # another job's data.
        job = doc.get("job") or None
        with self.vault_lock:
            for run in self.vault.runs(job=job):
                if run.run_id == run_id:
                    return m.META_ENTRIES, m.encode_index_entries(run.files)
        scope = f"job {job!r}" if job else "this vault"
        raise VaultError(f"no run {run_id} for {scope}")

    def _on_runs(self, payload: bytes) -> Tuple[int, bytes]:
        doc = m.decode_json(payload)
        with self.vault_lock:
            out = [r.summary() for r in self.vault.runs(job=doc.get("job"))]
        return m.RUNS_OK, m.encode_json(out)

    def _on_stats(self, payload: bytes) -> Tuple[int, bytes]:
        with self.vault_lock:
            stats = self.vault.stats()
        stats = {
            k: (None if v == float("inf") else v) for k, v in stats.items()
        }
        return m.STATS_OK, m.encode_json(stats)

    def _on_gc(self, payload: bytes) -> Tuple[int, bytes]:
        doc = m.decode_json(payload)
        threshold = float(doc.get("rewrite_threshold", 0.5))
        with self.vault_lock:
            report = self.vault.gc(rewrite_threshold=threshold)
        return m.GC_OK, m.encode_json(vars(report))

    def _on_verify(self, payload: bytes) -> Tuple[int, bytes]:
        doc = m.decode_json(payload)
        with self.vault_lock:
            try:
                report = self.vault.verify(deep=bool(doc.get("deep", False)))
            except (VaultError, MediaError) as exc:
                # Corruption is a *finding*, not a transport failure: report
                # it in-band so the client can exit EXIT_CORRUPTION.  Deep
                # verify surfaces media rot as MediaError/CorruptionError,
                # which must not cross the wire as a generic ERROR frame.
                return m.VERIFY_OK, m.encode_json({"ok": False, "finding": str(exc)})
        return m.VERIFY_OK, m.encode_json({"ok": True, **report})

    def _on_forget(self, payload: bytes) -> Tuple[int, bytes]:
        doc = m.decode_json(payload)
        # Same per-vault-run-id guard as META_GET — forgetting is
        # destructive, so a job-qualified forget must never land on an
        # unrelated job's run that shares the id.
        with self.vault_lock:
            self.vault.forget(int(doc["run_id"]), job=doc.get("job") or None)
        return m.FORGET_OK, m.encode_json({"forgotten": int(doc["run_id"])})

    # -- replication (DESIGN.md §11) ----------------------------------------------
    def _on_container_push(self, payload: bytes) -> Tuple[int, bytes]:
        envelope, image = m.decode_container_image(payload)
        origin = str(envelope.get("origin", ""))
        container_id = int(envelope.get("container_id", -1))
        if container_id < 0:
            raise ValueError("container push lacks a container_id")
        if origin == self.node_name:
            raise ValueError(
                f"refusing a replica of this node's own container ({origin!r})"
            )
        stored = self.replica_store.put(origin, container_id, image)
        if stored:
            self._t_pushes.labels(origin=origin).inc()
        return m.CONTAINER_PUSH_OK, m.encode_json({
            "origin": origin,
            "container_id": container_id,
            "stored": stored,
        })

    def _on_catalog_push(self, payload: bytes) -> Tuple[int, bytes]:
        doc = m.decode_json(payload)
        origin = str(doc.get("origin", ""))
        catalog = doc.get("catalog")
        if not isinstance(catalog, dict):
            raise ValueError("catalog push lacks a catalog object")
        self.replica_store.put_catalog(origin, catalog)
        return m.CATALOG_OK, m.encode_json({
            "origin": origin,
            "runs": mirrored_run_count(catalog),
        })

    def _on_repl_status(self, payload: bytes) -> Tuple[int, bytes]:
        with self.vault_lock:
            own = sorted(self.vault.repository.container_ids())
        status = {
            "node": self.node_name,
            # The node's own sealed containers: the rebalancer's inventory
            # of what this origin must keep replicated as the ring moves.
            "containers": own,
            "replicas": self.replica_store.status(),
            "outbound": (
                self.replicator.status() if self.replicator is not None else None
            ),
        }
        return m.REPL_STATUS_OK, m.encode_json(status)

    def _on_container_fetch(self, payload: bytes) -> Tuple[int, bytes]:
        doc = m.decode_json(payload)
        origin = str(doc.get("origin", ""))
        container_id = int(doc.get("container_id", -1))
        if origin == self.node_name:
            # Our own container: serve the primary copy (re-replication and
            # peer-driven repair pull from the origin like any replica).
            with self.vault_lock:
                # read_image serves either tier, so peers can rebuild from
                # a node whose containers have been migrated cold.
                image = self.vault.repository.read_image(container_id)
        else:
            image = self.replica_store.fetch_image(origin, container_id)
        return m.CONTAINER_IMAGE, m.encode_container_image(
            {"origin": origin, "container_id": container_id, "bytes": len(image)},
            image,
        )

    def _on_catalog_fetch(self, payload: bytes) -> Tuple[int, bytes]:
        doc = m.decode_json(payload)
        origin = str(doc.get("origin", ""))
        if origin == self.node_name:
            with self.vault_lock:
                catalog = self.vault.catalog.snapshot()
        else:
            catalog = self.replica_store.catalog(origin)
        return m.CATALOG_DATA, m.encode_json({"origin": origin, "catalog": catalog})

    # -- archive (DESIGN.md §15) ----------------------------------------------------
    def _on_delta_push(self, payload: bytes) -> Tuple[int, bytes]:
        envelope, blob = m.decode_container_image(payload)
        origin = str(envelope.get("origin", ""))
        job = str(envelope.get("job", ""))
        if origin == self.node_name:
            raise ValueError(
                f"refusing an archived delta of this node's own runs ({origin!r})"
            )
        # ingest fully CRC-verifies the blob and enforces the chain's FIFO
        # contract; a re-push of an applied run is an idempotent no-op.
        stored, tip = self.archive_store.ingest(origin, job, blob)
        expired: List[int] = []
        if stored and self.archive_director is not None:
            # Out-of-line retention, at the archive: expired points merge
            # forward before dropping, off the origin's inline path.
            expired = self.archive_director.expire_archive(
                self.archive_store, origin, job
            )
        return m.DELTA_PUSH_OK, m.encode_json({
            "origin": origin,
            "job": job,
            "run_id": int(envelope.get("run_id", 0)),
            "stored": stored,
            "tip": tip,
            "expired": expired,
        })

    def _on_delta_fetch(self, payload: bytes) -> Tuple[int, bytes]:
        doc = m.decode_json(payload)
        blob = self.archive_store.read_blob(
            str(doc["origin"]), str(doc["job"]),
            int(doc["base"]), int(doc["run"]),
        )
        return m.DELTA_DATA, blob

    def _on_archive_status(self, payload: bytes) -> Tuple[int, bytes]:
        retention = None
        if self.archive_director is not None and self.archive_director.retention:
            retention = self.archive_director.retention.spec()
        status = {
            "node": self.node_name,
            **self.archive_store.status(),
            "outbound": (
                self.archive_shipper.status()
                if self.archive_shipper is not None
                else None
            ),
            "retention": retention,
        }
        return m.ARCHIVE_STATUS_OK, m.encode_json(status)

    def _on_archive_merge(self, payload: bytes) -> Tuple[int, bytes]:
        from repro.archive.retention import RetentionPolicy

        doc = m.decode_json(payload)
        policy = None
        if doc.get("retention"):
            policy = RetentionPolicy.parse(str(doc["retention"]))
        elif self.archive_director is not None:
            policy = self.archive_director.retention
        if policy is None:
            raise ValueError(
                "no retention policy: pass one or serve with --retention"
            )
        origins = (
            [str(doc["origin"])] if doc.get("origin")
            else self.archive_store.origins()
        )
        expired: Dict[str, Dict[str, List[int]]] = {}
        for origin in origins:
            jobs = (
                [str(doc["job"])] if doc.get("job")
                else self.archive_store.jobs(origin)
            )
            for job in jobs:
                gone = self.archive_store.apply_retention(origin, job, policy)
                if gone:
                    expired.setdefault(origin, {})[job] = gone
        return m.ARCHIVE_MERGE_OK, m.encode_json(
            {"retention": policy.spec(), "expired": expired}
        )

    # -- the event loop core ------------------------------------------------------
    async def _main(self) -> None:
        self._track(asyncio.ensure_future(self._session_sweeper()))
        await super()._main()

    async def _session_sweeper(self) -> None:
        if self.session_ttl is None or self.session_ttl <= 0:
            return
        interval = max(0.05, min(self.session_ttl / 4.0, 5.0))
        while True:
            await asyncio.sleep(interval)
            # The sweep takes the vault lock; keep it off the loop thread.
            await self._in_executor(self.expire_idle_sessions)

    def _count_received(self, nbytes: int) -> None:
        self._t_bytes_in.inc(nbytes)

    def _count_sent(self, nbytes: int) -> None:
        self._t_bytes_out.inc(nbytes)

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._t_connections.inc()
        self._track(asyncio.current_task())
        wlock = asyncio.Lock()
        tenant: Optional[str] = None
        authed = not self.tenants
        pending: set = set()
        try:
            while True:
                frame = await self._read_frame(reader)
                if frame is None:
                    break
                if self._draining:
                    break  # refuse post-drain frames; the client retries elsewhere
                if frame.msg_type == m.HELLO and self.tenants:
                    try:
                        tenant = self.authenticate(m.decode_json(frame.payload))
                        authed = True
                    except (AuthError, m.MessageError) as exc:
                        await self._write_frame(
                            writer, wlock,
                            _error_frame(frame.request_id, "AuthError", str(exc)),
                        )
                        break
                elif not authed:
                    self._t_auth_failures.inc()
                    await self._write_frame(
                        writer, wlock,
                        _error_frame(
                            frame.request_id, "AuthError",
                            "authenticate first (HELLO with client + token)",
                        ),
                    )
                    break
                # Admission: global in-flight cap, then the tenant's share.
                # HELLO is exempt — shedding the handshake would refuse the
                # connection outright (clients can't tell Busy from an auth
                # failure mid-connect), and it costs one cheap echo.
                # (_active_requests only changes on this thread, so the
                # unlocked read is exact.)
                if frame.msg_type != m.HELLO and (
                    self._active_requests >= self.max_inflight
                    or self._tenant_inflight.get(tenant, 0)
                    >= self.tenant_max_inflight
                ):
                    self._t_busy.inc()
                    await self._write_frame(
                        writer, wlock,
                        _error_frame(
                            frame.request_id, "Busy",
                            f"{self._active_requests} requests in flight "
                            f"(cap {self.max_inflight})",
                        ),
                    )
                    continue
                if not self.begin_request():
                    break
                self._tenant_inflight[tenant] = (
                    self._tenant_inflight.get(tenant, 0) + 1
                )
                job = self._track(asyncio.ensure_future(
                    self._process(frame, tenant, writer, wlock)
                ))
                pending.add(job)
                job.add_done_callback(pending.discard)
        except asyncio.CancelledError:
            pass  # forced stop: fall through to cleanup
        finally:
            if pending:
                # In-flight responses still flush after the pump stops
                # (graceful drain finishes started work).
                with contextlib.suppress(asyncio.CancelledError):
                    await asyncio.gather(*pending, return_exceptions=True)
            with contextlib.suppress(Exception):
                writer.close()

    async def _process(
        self,
        frame: Frame,
        tenant: Optional[str],
        writer: asyncio.StreamWriter,
        wlock: asyncio.Lock,
    ) -> None:
        try:
            drop_connection = False
            try:
                response = await self._in_executor(
                    self.handle_request_frame, frame, tenant
                )
            except ProtocolError as exc:
                response = _error_frame(
                    frame.request_id, "ProtocolError", str(exc)
                )
                drop_connection = True
            except asyncio.CancelledError:
                return  # forced stop abandoned this request
            self._t_requests.labels(type=m.msg_name(frame.msg_type)).inc()
            await self._write_frame(writer, wlock, response)
            if drop_connection:
                with contextlib.suppress(Exception):
                    writer.close()
        finally:
            count = self._tenant_inflight.get(tenant, 1) - 1
            if count <= 0:
                self._tenant_inflight.pop(tenant, None)
            else:
                self._tenant_inflight[tenant] = count
            self.end_request()


_HANDLERS: Dict[int, Callable[[VaultProtocolServer, bytes], Tuple[int, bytes]]] = {
    m.HELLO: VaultProtocolServer._on_hello,
    m.PING: VaultProtocolServer._on_ping,
    m.SESSION_BEGIN: VaultProtocolServer._on_session_begin,
    m.FILTER_QUERY: VaultProtocolServer._on_filter_query,
    m.CHUNK_APPEND: VaultProtocolServer._on_chunk_append,
    m.META_PUT: VaultProtocolServer._on_meta_put,
    m.SESSION_COMMIT: VaultProtocolServer._on_session_commit,
    m.SESSION_ABORT: VaultProtocolServer._on_session_abort,
    m.DEDUP2: VaultProtocolServer._on_dedup2,
    m.CHUNK_READ: VaultProtocolServer._on_chunk_read,
    m.META_GET: VaultProtocolServer._on_meta_get,
    m.RUNS: VaultProtocolServer._on_runs,
    m.STATS: VaultProtocolServer._on_stats,
    m.GC: VaultProtocolServer._on_gc,
    m.VERIFY: VaultProtocolServer._on_verify,
    m.FORGET: VaultProtocolServer._on_forget,
    m.CONTAINER_PUSH: VaultProtocolServer._on_container_push,
    m.CATALOG_PUSH: VaultProtocolServer._on_catalog_push,
    m.REPL_STATUS: VaultProtocolServer._on_repl_status,
    m.CONTAINER_FETCH: VaultProtocolServer._on_container_fetch,
    m.CATALOG_FETCH: VaultProtocolServer._on_catalog_fetch,
    m.DELTA_PUSH: VaultProtocolServer._on_delta_push,
    m.DELTA_FETCH: VaultProtocolServer._on_delta_fetch,
    m.ARCHIVE_STATUS: VaultProtocolServer._on_archive_status,
    m.ARCHIVE_MERGE: VaultProtocolServer._on_archive_merge,
}


def serve_vault(
    vault: DebarVault,
    host: str = "127.0.0.1",
    port: int = 0,
    registry: Optional[MetricsRegistry] = None,
    node_name: str = "node",
    **limits,
) -> VaultProtocolServer:
    """Build a protocol server on ``host:port`` (port 0 = ephemeral).

    The caller runs ``serve_forever()`` (or a background thread does, in
    tests) and ``shutdown()`` + ``server_close()`` — or
    ``shutdown_gracefully()`` — when done.  ``limits`` forwards
    admission-control knobs (``max_inflight``, ``max_buffered_bytes``,
    ``session_ttl``, ``tenants``).
    """
    return VaultProtocolServer(
        vault, host=host, port=port, registry=registry, node_name=node_name,
        **limits,
    )
