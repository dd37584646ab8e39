"""The remote backup client: the vault API over the wire (DESIGN.md §9).

:class:`NetClient` is the RPC layer — one TCP connection, a handshake
(with the tenant token when the daemon is tenanted), ``call()`` with
per-request timeouts, bounded retry with exponential backoff and
deterministic jitter, and idempotent request ids (a retried request
re-sends the *same* id; the server's response cache makes the retry safe
even when the original executed).  ``call_many()`` pipelines a batch of
requests down the socket and collects the responses by id in whatever
order the server's multiplexed core finishes them — the client half of
connection multiplexing (DESIGN.md §12).  A server-side admission shed
(``ERROR {"error": "Busy"}``) is retryable like a transport fault;
every other remote error raises :class:`RemoteError` immediately.

:class:`RemoteBackupClient` mirrors the parts of
:class:`~repro.system.vault.DebarVault` the CLI uses — ``backup``,
``restore``, ``runs``, ``stats``, ``gc``, ``verify``, ``forget``,
``dedup2`` — so ``repro backup --connect host:port ...`` behaves like
``repro backup --vault ...`` with the pipeline split across the wire at
exactly the paper's Section 3 client/server boundary: anchoring,
chunking and fingerprinting run here; filtering, the chunk log, dedup-2
and the LPC run on the server.

:class:`WireSource` is ``CHUNK_READ`` as a source of the one
:class:`~repro.storage.reader.ChunkReader` (plan-driven batched reads), so
:meth:`~repro.client.backup_client.BackupEngine.restore_run` works
unchanged against a remote server.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.chunking.cdc import ContentDefinedChunker
from repro.client.backup_client import BackupEngine
from repro.core.fingerprint import Fingerprint
from repro.director.metadata import FileIndexEntry, FileMetadata
from repro.net import messages as m
from repro.net.framing import Frame, FrameError, ProtocolError, read_frame
from repro.storage.reader import ChunkReader
from repro.telemetry.clock import wall_now
from repro.telemetry.registry import MetricsRegistry, get_registry

PathLike = Union[str, Path]

#: Fingerprints per FILTER_QUERY batch and chunks per CHUNK_APPEND batch.
QUERY_BATCH = 4096
APPEND_BATCH_BYTES = 4 * 1024 * 1024
#: Chunks fetched per CHUNK_READ during a planned restore.
READ_BATCH = 64


class RemoteError(ProtocolError):
    """The server reported an application error (not a transport failure)."""

    def __init__(self, error: str, message: str) -> None:
        super().__init__(f"{error}: {message}")
        self.error = error
        self.message = message


class RemoteUnavailable(ProtocolError):
    """The retry budget ran out without a successful round trip."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter."""

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    timeout: float = 10.0
    #: TCP connect budget; ``None`` falls back to ``timeout``.  A down
    #: node whose SYNs go unanswered should fail in the connect budget,
    #: not hold a whole request timeout hostage per attempt.
    connect_timeout: Optional[float] = None

    @property
    def effective_connect_timeout(self) -> float:
        return self.timeout if self.connect_timeout is None else self.connect_timeout

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (1-based): ``base * 2^(n-1)``
        capped at ``max_delay``, times a jitter factor in ``[1-j, 1+j]``."""
        backoff = min(self.base_delay * (2 ** (attempt - 1)), self.max_delay)
        return backoff * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


class NetClient:
    """One logical connection to a ``repro serve`` daemon."""

    def __init__(
        self,
        host: str,
        port: int,
        client_name: str = "client",
        retry: Optional[RetryPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
        seed: Optional[int] = None,
        token: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.client_name = client_name
        self.token = token
        self.retry = retry if retry is not None else RetryPolicy()
        # Request ids must be unique across reconnects of this client and
        # across clients sharing a server (they key the server's
        # idempotency cache): a random 32-bit nonce prefixes a local
        # counter.  The nonce comes from the OS unless a seed is forced;
        # two clients sharing a nonce would read each other's cached
        # responses.
        nonce = (
            random.SystemRandom().getrandbits(32)
            if seed is None
            else random.Random(seed).getrandbits(32)
        )
        self._rng = random.Random(nonce)
        self._rid_base = nonce << 32
        self._rid_next = 0
        self._sock: Optional[socket.socket] = None
        #: Fault-injection hook on outgoing frames (repro.net.faults).
        self.fault_hook = None
        self._sleep = None  # test seam; defaults to time.sleep
        registry = registry if registry is not None else get_registry()
        self._t_bytes_out = registry.counter(
            "net.bytes_sent", "protocol bytes sent, by role"
        ).labels(role="client")
        self._t_bytes_in = registry.counter(
            "net.bytes_received", "protocol bytes received, by role"
        ).labels(role="client")
        self._t_requests = registry.counter(
            "net.requests", "protocol requests handled, by message type"
        )
        self._t_retries = registry.counter(
            "net.retries", "request retries after timeouts/transport faults"
        ).labels()
        self._t_latency = registry.histogram(
            "net.rpc_latency", "round-trip seconds per request, by type"
        )
        self._t_reconnects = registry.counter(
            "net.reconnects", "connections (re)established by the client"
        ).labels()

    # -- connection ---------------------------------------------------------------
    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.retry.effective_connect_timeout
        )
        sock.settimeout(self.retry.timeout)
        self._sock = sock
        self._t_reconnects.inc()
        doc = {"client": self.client_name}
        if self.token is not None:
            doc["token"] = self.token
        hello = Frame(m.HELLO, self._next_rid(), m.encode_json(doc))
        self._send_raw(hello.encode())
        response = self._recv_frame()
        if response.msg_type == m.ERROR:
            err = m.decode_json(response.payload)
            self.close()
            raise RemoteError(err.get("error", "Error"), err.get("message", ""))
        if response.msg_type != m.HELLO_OK:
            raise ProtocolError(
                f"handshake failed: got {m.msg_name(response.msg_type)}"
            )

    def _ensure_connected(self) -> None:
        if self._sock is None:
            self._connect()

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def _drop_connection(self) -> None:
        self.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- wire I/O -----------------------------------------------------------------
    def _next_rid(self) -> int:
        self._rid_next += 1
        return self._rid_base | (self._rid_next & 0xFFFFFFFF)

    def _send_raw(self, blob: bytes) -> None:
        if self._sock is None:
            raise OSError("connection closed")
        self._sock.sendall(blob)
        self._t_bytes_out.inc(len(blob))

    def _send_frame(self, frame: Frame) -> None:
        blob = frame.encode()
        if self.fault_hook is not None:
            blob = self.fault_hook("send", blob, self)
            if blob is None:
                return  # frame dropped on the floor
        self._send_raw(blob)

    def _recv_frame(self) -> Frame:
        if self._sock is None:
            raise OSError("connection closed")
        sock = self._sock

        def counted_recv(n: int) -> bytes:
            block = sock.recv(n)
            self._t_bytes_in.inc(len(block))
            return block

        return read_frame(counted_recv)

    def _recv_matching(self, request_id: int) -> Frame:
        """Read until the response for ``request_id`` arrives.

        Stale frames (responses to an earlier attempt that the server
        answered after we had given up, or duplicates a fault injected)
        are discarded by id.
        """
        while True:
            frame = self._recv_frame()
            if frame.request_id == request_id:
                return frame

    # -- the RPC ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> None:
        self._t_retries.inc()
        sleep = self._sleep if self._sleep is not None else time.sleep
        sleep(self.retry.delay(attempt - 1, self._rng))

    def call(self, msg_type: int, payload: bytes = b"") -> bytes:
        """One request/response round trip with retries.

        Transport failures (timeout, connection loss, truncated or
        malformed frames) reconnect and re-send the same request id, up to
        ``retry.max_attempts``; a ``Busy`` admission shed backs off and
        retries the same id; every other application error raises
        :class:`RemoteError` immediately and is never retried.  Each
        attempt is timed individually, so ``net.rpc_latency`` measures
        round trips, not backoff sleeps.
        """
        rid = self._next_rid()
        frame = Frame(msg_type, rid, payload)
        expected = m.RESPONSE_OF.get(msg_type)
        last_error: Optional[Exception] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            if attempt > 1:
                self._backoff(attempt)
            t0 = wall_now()
            try:
                self._ensure_connected()
                self._send_frame(frame)
                response = self._recv_matching(rid)
            except (socket.timeout, TimeoutError, FrameError, OSError) as exc:
                last_error = exc
                self._drop_connection()
                continue
            self._t_requests.labels(type=m.msg_name(msg_type)).inc()
            self._t_latency.labels(type=m.msg_name(msg_type)).observe(
                wall_now() - t0
            )
            if response.msg_type == m.ERROR:
                doc = m.decode_json(response.payload)
                if doc.get("error") == "Busy":
                    # Admission shed: retryable with backoff, same id.
                    last_error = RemoteError("Busy", doc.get("message", ""))
                    continue
                raise RemoteError(doc.get("error", "Error"), doc.get("message", ""))
            if expected is not None and response.msg_type != expected:
                raise ProtocolError(
                    f"expected {m.msg_name(expected)} for {m.msg_name(msg_type)}, "
                    f"got {m.msg_name(response.msg_type)}"
                )
            return response.payload
        raise RemoteUnavailable(
            f"{m.msg_name(msg_type)} failed after {self.retry.max_attempts} "
            f"attempts: {last_error}"
        )

    def call_many(
        self, requests: Sequence[Tuple[int, bytes]]
    ) -> List[bytes]:
        """Pipeline a batch of requests on one socket (multiplexed calls).

        All frames are written back to back, then responses are collected
        by request id in whatever order the server finishes them.  A
        transport fault re-sends only the still-unanswered ids (safe:
        idempotent request ids); a ``Busy`` shed re-queues that id for the
        next backoff round.  Responses are returned in request order.
        """
        if not requests:
            return []
        rids = [self._next_rid() for _ in requests]
        frames = {
            rid: Frame(msg_type, rid, payload)
            for rid, (msg_type, payload) in zip(rids, requests)
        }
        expected = {
            rid: m.RESPONSE_OF.get(msg_type)
            for rid, (msg_type, _) in zip(rids, requests)
        }
        results: Dict[int, bytes] = {}
        last_error: Optional[Exception] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            if attempt > 1:
                self._backoff(attempt)
            outstanding = [rid for rid in rids if rid not in results]
            if not outstanding:
                break
            t0 = wall_now()
            try:
                self._ensure_connected()
                for rid in outstanding:
                    self._send_frame(frames[rid])
                pending = set(outstanding)
                while pending:
                    response = self._recv_frame()
                    rid = response.request_id
                    if rid not in pending:
                        continue  # stale or duplicated response: discard
                    msg_type = frames[rid].msg_type
                    if response.msg_type == m.ERROR:
                        doc = m.decode_json(response.payload)
                        if doc.get("error") == "Busy":
                            # Shed: leave it out of results; next attempt
                            # re-sends it after backoff.
                            last_error = RemoteError("Busy", doc.get("message", ""))
                            pending.discard(rid)
                            continue
                        raise RemoteError(
                            doc.get("error", "Error"), doc.get("message", "")
                        )
                    if (
                        expected[rid] is not None
                        and response.msg_type != expected[rid]
                    ):
                        raise ProtocolError(
                            f"expected {m.msg_name(expected[rid])} for "
                            f"{m.msg_name(msg_type)}, got "
                            f"{m.msg_name(response.msg_type)}"
                        )
                    results[rid] = response.payload
                    pending.discard(rid)
                    self._t_requests.labels(type=m.msg_name(msg_type)).inc()
                    self._t_latency.labels(type=m.msg_name(msg_type)).observe(
                        wall_now() - t0
                    )
            except (socket.timeout, TimeoutError, FrameError, OSError) as exc:
                last_error = exc
                self._drop_connection()
                continue
        missing = [rid for rid in rids if rid not in results]
        if missing:
            raise RemoteUnavailable(
                f"{len(missing)} of {len(rids)} pipelined requests failed "
                f"after {self.retry.max_attempts} attempts: {last_error}"
            )
        return [results[rid] for rid in rids]

    def call_json(self, msg_type: int, doc: Optional[dict] = None) -> dict:
        return m.decode_json(self.call(msg_type, m.encode_json(doc or {})))

    def ping(self) -> bool:
        return self.call(m.PING, b"ping") == b"ping"


@dataclass
class RemoteRun:
    """A run summary as reported by the server."""

    run_id: int
    job: str
    timestamp: float
    files: int
    logical_bytes: int
    transferred_bytes: int
    #: Per-run chunk count (None when talking to a pre-archive server).
    chunks: Optional[int] = None

    def summary(self) -> dict:
        """The listing row, as :meth:`repro.system.catalog.VaultRun.summary`."""
        return asdict(self)


class WireSource:
    """``CHUNK_READ`` as a :class:`~repro.storage.reader.ChunkReader` source.

    Each fetch asks for the next planned fingerprints in one request, so a
    sequential restore pays one RPC per batch instead of one per chunk
    (the wire analogue of the LPC's locality argument).  A daemon fails a
    whole batch on any miss (its own store and its replica store are
    all-or-nothing per frame), and after the origin died a window can span
    containers placed on different survivors — so a refused batch is
    retried for the requested fingerprint alone, and the next batch is
    half as long; every full answer doubles it again up to
    :data:`READ_BATCH`.  The peer serves what it can; the reader asks the
    next source only for what is still missing.
    """

    def __init__(self, net: NetClient, owns_net: bool = False) -> None:
        self._net = net
        self._owns_net = owns_net
        self._batch = READ_BATCH

    @classmethod
    def dial(cls, host: str, port: int, name: str) -> "WireSource":
        """A source over its own connection to a peer daemon, opened on
        the first fetch and closed by :meth:`close`."""
        return cls(
            NetClient(host, port, client_name=f"failover:{name}"), owns_net=True
        )

    def _read(self, fps: Sequence[Fingerprint]) -> Dict[Fingerprint, bytes]:
        chunks, _ = m.decode_chunk_batch(
            self._net.call(m.CHUNK_READ, m.encode_fps(fps))
        )
        return dict(chunks)

    def fetch(
        self, fp: Fingerprint, upcoming: Sequence[Fingerprint]
    ) -> Dict[Fingerprint, bytes]:
        wanted = upcoming[: self._batch]
        try:
            got = self._read(wanted)
        except RemoteError:
            if len(wanted) == 1:
                raise
            self._batch = len(wanted) // 2
            return self._read([fp])
        self._batch = min(READ_BATCH, 2 * self._batch)
        return got

    def close(self) -> None:
        if self._owns_net:
            self._net.close()


class RemoteBackupClient:
    """The in-process vault API, spoken to a ``repro serve`` daemon."""

    #: Pipelined CHUNK_APPEND frames kept in flight per window (bounds
    #: client-side buffering at APPEND_WINDOW * APPEND_BATCH_BYTES).
    APPEND_WINDOW = 4

    def __init__(
        self,
        host: str,
        port: int,
        client_name: str = "remote",
        chunker: Optional[ContentDefinedChunker] = None,
        retry: Optional[RetryPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
        token: Optional[str] = None,
    ) -> None:
        registry = registry if registry is not None else get_registry()
        self.registry = registry
        self.net = NetClient(
            host, port, client_name=client_name, retry=retry, registry=registry,
            token=token,
        )
        self.engine = BackupEngine(client_name, chunker=chunker, registry=registry)

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        self.net.close()

    def __enter__(self) -> "RemoteBackupClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- backup -------------------------------------------------------------------
    def backup(
        self,
        job: str,
        dataset: Sequence[PathLike],
        timestamp: Optional[float] = None,
    ) -> RemoteRun:
        """One remote backup run: metadata backup, anchoring and
        fingerprinting locally; filtering and content backup server-side.

        Per file: the full fingerprint sequence crosses the wire as a
        batched ``FILTER_QUERY``; only chunks the server's preliminary
        filter admits are transferred (``CHUNK_APPEND``); the file index
        follows (``META_PUT``).  ``SESSION_COMMIT`` runs dedup-1 +
        dedup-2 server-side and records the run.
        """
        begun = self.net.call_json(m.SESSION_BEGIN, {"job": job})
        session = int(begun["session"])
        try:
            for metadata, chunks in self.engine.iter_dataset(
                [Path(p) for p in dataset]
            ):
                self._send_file(session, metadata, chunks)
            doc = {"session": session}
            if timestamp is not None:
                doc["timestamp"] = timestamp
            summary = self.net.call_json(m.SESSION_COMMIT, doc)
        except Exception:
            # The session (and its buffered payload bytes) would otherwise
            # sit server-side until the idle-TTL sweep finds it.
            self.abort_session(session)
            raise
        return RemoteRun(
            run_id=int(summary["run_id"]),
            job=summary["job"],
            timestamp=float(summary["timestamp"]),
            files=int(summary["files"]),
            logical_bytes=int(summary["logical_bytes"]),
            transferred_bytes=int(summary["transferred_bytes"]),
        )

    def abort_session(self, session: int) -> None:
        """Discard a server-side session (best effort; idempotent)."""
        try:
            self.net.call(m.SESSION_ABORT, m.encode_json({"session": session}))
        except ProtocolError:
            pass  # the TTL sweep will reclaim it eventually

    def _send_file(self, session: int, metadata: FileMetadata, chunks) -> None:
        session_prefix = m._U32.pack(session)
        chunks = list(chunks)
        sized = [(c.fingerprint, c.size) for c in chunks]
        # All filter batches for the file go down the pipe together; the
        # multiplexed server answers them as they decode.
        batches = [
            sized[start : start + QUERY_BATCH]
            for start in range(0, len(sized), QUERY_BATCH)
        ]
        filter_results = self.net.call_many([
            (m.FILTER_QUERY, session_prefix + m.encode_sized_fps(batch))
            for batch in batches
        ])
        wanted: List[bool] = []
        for batch, result in zip(batches, filter_results):
            decisions, _ = m.decode_bitmap(result)
            if len(decisions) != len(batch):
                raise ProtocolError(
                    f"filter result covers {len(decisions)} of {len(batch)} queries"
                )
            wanted.extend(decisions)
        pending: List[Tuple[Fingerprint, bytes]] = []
        pending_bytes = 0
        window: List[Tuple[int, bytes]] = []
        for chunk, admit in zip(chunks, wanted):
            if not admit:
                continue
            pending.append((chunk.fingerprint, chunk.data))
            pending_bytes += chunk.size
            if pending_bytes >= APPEND_BATCH_BYTES:
                window.append(
                    (m.CHUNK_APPEND, session_prefix + m.encode_chunk_batch(pending))
                )
                pending, pending_bytes = [], 0
                if len(window) >= self.APPEND_WINDOW:
                    self.net.call_many(window)
                    window = []
        if pending:
            window.append(
                (m.CHUNK_APPEND, session_prefix + m.encode_chunk_batch(pending))
            )
        if window:
            self.net.call_many(window)
        meta_blob = m.encode_json({
            "path": metadata.path,
            "size": metadata.size,
            "mode": metadata.mode,
            "mtime": metadata.mtime,
        })
        self.net.call(
            m.META_PUT,
            session_prefix + m._U32.pack(len(meta_blob)) + meta_blob
            + m.encode_sized_fps(sized),
        )

    # -- restore ------------------------------------------------------------------
    def run_entries(
        self, run_id: int, job: Optional[str] = None
    ) -> List[FileIndexEntry]:
        """The run's file indices (``META_GET``).

        Run ids are per-vault; pass ``job`` when talking to a router or a
        node that may hold several vaults' ids so the lookup is pinned to
        one job's chain.
        """
        doc = {"run_id": run_id}
        if job:
            doc["job"] = job
        payload = self.net.call(m.META_GET, m.encode_json(doc))
        entries, _ = m.decode_file_entries(payload)
        return [
            FileIndexEntry(
                FileMetadata(
                    path=str(meta.get("path", "<remote>")),
                    size=int(meta.get("size", 0)),
                    mode=int(meta.get("mode", 0o644)),
                    mtime=float(meta.get("mtime", 0.0)),
                ),
                fps,
            )
            for meta, fps in entries
        ]

    def restore(
        self,
        run_id: int,
        dest: PathLike,
        strip_prefix: PathLike = "/",
        job: Optional[str] = None,
        fallbacks: Sequence[Tuple[str, object]] = (),
    ) -> List[Path]:
        """Restore one run into ``dest`` through batched chunk reads —
        from this connection, then from ``fallbacks`` in order (named
        chunk sources: the ``--replica`` daemons of a failover restore)."""
        entries = self.run_entries(run_id, job=job)
        reader = ChunkReader(
            [(f"{self.net.host}:{self.net.port}", WireSource(self.net)), *fallbacks],
            (fp for e in entries for fp in e.fingerprints),
            registry=self.registry,
        )
        return self.engine.restore_run(entries, reader, dest, strip_prefix)

    # -- maintenance and queries --------------------------------------------------
    def runs(self, job: Optional[str] = None) -> List[RemoteRun]:
        out = self.net.call_json(m.RUNS, {"job": job})
        return [RemoteRun(**{**r, "run_id": int(r["run_id"])}) for r in out]

    def stats(self) -> dict:
        return self.net.call_json(m.STATS)

    def dedup2(self, force_siu: Optional[bool] = None) -> dict:
        return self.net.call_json(m.DEDUP2, {"force_siu": force_siu})

    def gc(self, rewrite_threshold: float = 0.5) -> dict:
        return self.net.call_json(m.GC, {"rewrite_threshold": rewrite_threshold})

    def verify(self, deep: bool = False) -> dict:
        return self.net.call_json(m.VERIFY, {"deep": deep})

    def forget(self, run_id: int, job: Optional[str] = None) -> dict:
        doc = {"run_id": run_id}
        if job:
            doc["job"] = job
        return self.net.call_json(m.FORGET, doc)

    # -- archive (DESIGN.md §15) ---------------------------------------------------
    def archive_status(self) -> dict:
        """The server's delta-chain inventory (``ARCHIVE_STATUS``)."""
        return self.net.call_json(m.ARCHIVE_STATUS, {})

    def archive_merge(
        self,
        retention: Optional[str] = None,
        origin: Optional[str] = None,
        job: Optional[str] = None,
    ) -> dict:
        """Trigger retention/compaction at the archive (``ARCHIVE_MERGE``)."""
        doc: dict = {}
        if retention:
            doc["retention"] = retention
        if origin:
            doc["origin"] = origin
        if job:
            doc["job"] = job
        return self.net.call_json(m.ARCHIVE_MERGE, doc)

    def restore_as_of(
        self,
        as_of: int,
        dest: PathLike,
        strip_prefix: PathLike = "/",
        job: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> List[Path]:
        """Point-in-time restore: the live catalog when it still records
        the run (the same bytes, without folding a delta chain), else this
        server's archived chains — the primary vault need not exist
        (repro.archive.restore)."""
        if any(r.run_id == as_of for r in self.runs(job=job)):
            return self.restore(as_of, dest, strip_prefix=strip_prefix, job=job)
        from repro.archive.restore import restore_remote

        return restore_remote(
            self.net, as_of, dest, strip_prefix, job=job, origin=origin
        )
