"""The front-door router: one address for the whole cluster (DESIGN.md §14).

:class:`FrontDoorRouter` is an asyncio daemon speaking the same ``DBAR``
frame protocol as ``repro serve`` (on the same
:class:`~repro.net.aioserver.AsyncFrameServer` skeleton), but it owns no
vault.  It owns the
:class:`~repro.frontdoor.membership.ClusterMembership` table.  Clients
connect as if the router were a ``repro serve`` node (``--connect
ROUTER``) and every data frame is **proxied**: forwarded verbatim (same
request id, so the nodes' idempotency caches keep protecting retries)
to the node the ring picks.

Routing keys: a backup session is pinned to ``job:<name>`` at
``SESSION_BEGIN`` (the session id in ``SESSION_OK`` keys the rest of the
session's frames to that node); content-addressed reads
(``CHUNK_READ``, keyed by fingerprint) try the connection's last-good
node first and fail over across the live set — a node that lacks the
data answers with an ``ERROR`` frame and the next candidate is tried,
which is exactly how replica-set failover reaches a dead node's
surviving copies (the serve core falls through to its replica store).
Run-keyed frames are different: run ids are **per vault** (every node
numbers its own runs from 1), so ``META_GET`` is addressed by
(job, run id) — the job resolved via small ``RUNS`` queries when the
client did not supply one, ambiguity refused rather than guessed, and
nodes validating the job server-side so a colliding id on the wrong
vault errors instead of answering — and the destructive ``FORGET``
routes to exactly one resolved owner and never fails over.  Two deeper
fallbacks make restores survive a dead origin outright: a
``CHUNK_READ`` batch no single node can serve whole is split
per-fingerprint across the live set, and a ``META_GET`` for a dead
node's run is synthesized from the mirrored run catalog a surviving
replica holds.

Health is a PING sweep (:class:`HealthMonitor`) plus the data path
itself: a proxied frame that dies on transport counts as a failed probe,
so a crashed node stops receiving traffic after ``mark_down_after``
consecutive failures without waiting out the sweep timer.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.frontdoor.health import (
    DEFAULT_MARK_DOWN_AFTER,
    DEFAULT_PROBE_INTERVAL,
    DEFAULT_PROBE_TIMEOUT,
    HealthMonitor,
)
from repro.frontdoor.membership import ClusterMembership, MembershipError
from repro.frontdoor.rebalance import RebalancePlanner, collect_inventories
from repro.net import messages as m
from repro.net.aioserver import AsyncFrameServer, _error_frame
from repro.net.client import RetryPolicy
from repro.net.framing import FRAME_HEADER_SIZE, Frame, FrameError, decode_header
from repro.system.catalog import mirrored_runs
from repro.telemetry.clock import wall_now
from repro.telemetry.registry import MetricsRegistry, get_registry

#: Budget for one proxied round trip (generous: SESSION_COMMIT runs
#: dedup-2 server-side).
DEFAULT_PROXY_TIMEOUT = 60.0
#: Budget for opening + handshaking a downstream connection.
DEFAULT_CONNECT_TIMEOUT = 2.0

#: Session-scoped message types whose payload *starts* with the u32
#: session id (binary payloads).
_SESSION_PREFIXED = frozenset({m.FILTER_QUERY, m.CHUNK_APPEND, m.META_PUT})
#: Session-scoped message types carrying the session id in JSON.
_SESSION_JSON = frozenset({m.SESSION_COMMIT, m.SESSION_ABORT})
#: Read types that fail over across the live set on any error.  Only
#: content-addressed reads belong here: a CHUNK_READ is keyed by
#: fingerprint (a content hash), so whichever node answers, the bytes are
#: the right bytes.  META_GET and FORGET are keyed by *per-vault* run ids
#: that collide across nodes (every vault numbers its own runs from 1),
#: so they route through the job-qualified paths below instead —
#: and FORGET, being destructive, never fails over at all.
#: DELTA_FETCH qualifies: its key (origin, job, base, run) names one
#: archive segment globally, so any node holding the chain answers with
#: the right bytes.
_FAILOVER_READS = frozenset({m.CHUNK_READ, m.DELTA_FETCH})


class RouteError(Exception):
    """The router could not place or forward a frame."""


def _parse_address(address: str) -> Tuple[str, int]:
    host, _, port = address.rpartition(":")
    return host or "127.0.0.1", int(port)


class _Downstream:
    """One router->node connection, multiplexed by request id.

    Frames are forwarded with the client's own request ids; a single
    reader task resolves pending futures as the node answers in whatever
    order its event loop finishes them.
    """

    def __init__(self, name: str, address: str, router: "FrontDoorRouter") -> None:
        self.name = name
        self.address = address
        self._router = router
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._wlock = asyncio.Lock()
        self._connect_lock = asyncio.Lock()
        self._pending: Dict[int, asyncio.Future] = {}
        self._pump_task: Optional[asyncio.Task] = None

    async def ensure(self, hello_doc: dict) -> None:
        # Serialized: two frames dispatched concurrently for the same node
        # must not both open a connection (the loser's socket and pump
        # task would leak for the life of the client connection).
        async with self._connect_lock:
            if self._writer is not None:
                return
            host, port = _parse_address(self.address)
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(host, port),
                timeout=self._router.connect_timeout,
            )
            self._pump_task = asyncio.ensure_future(self._pump())
            # Replay the client's HELLO (it may carry a tenant token the node
            # wants); the router's own id keeps it out of the client's id space.
            response = await self.call(
                Frame(m.HELLO, self._router._next_rid(), m.encode_json(hello_doc)),
                timeout=self._router.connect_timeout,
            )
            if response.msg_type != m.HELLO_OK:
                doc = m.decode_json(response.payload)
                raise RouteError(
                    f"{self.name} refused the handshake: {doc.get('message', '')}"
                )

    async def call(self, frame: Frame, timeout: float) -> Frame:
        writer = self._writer
        if writer is None:
            raise ConnectionError(f"downstream {self.name} is closed")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending[frame.request_id] = future
        try:
            async with self._wlock:
                writer.write(frame.encode())
                await writer.drain()
            return await asyncio.wait_for(future, timeout=timeout)
        finally:
            self._pending.pop(frame.request_id, None)

    async def _pump(self) -> None:
        reader = self._reader
        try:
            while True:
                header = await reader.readexactly(FRAME_HEADER_SIZE)
                msg_type, request_id, length = decode_header(header)
                payload = (
                    await reader.readexactly(length) if length else b""
                )
                future = self._pending.get(request_id)
                if future is not None and not future.done():
                    future.set_result(Frame(msg_type, request_id, payload))
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
            FrameError,
            asyncio.CancelledError,
        ) as exc:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError(f"downstream {self.name} dropped: {exc}")
                    )
            # The transport is dead: drop it *now* so the next proxied
            # frame reconnects immediately instead of writing into a dead
            # socket and waiting out the full proxy timeout.
            writer, self._writer, self._reader = self._writer, None, None
            if writer is not None:
                with contextlib.suppress(Exception):
                    writer.close()

    async def close(self) -> None:
        if self._pump_task is not None:
            self._pump_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._pump_task
            self._pump_task = None
        if self._writer is not None:
            with contextlib.suppress(Exception):
                self._writer.close()
            self._writer = None
        self._reader = None


class _Connection:
    """Per-client-connection proxy state."""

    def __init__(self) -> None:
        self.hello_doc: dict = {"client": "router"}
        self.downstreams: Dict[str, _Downstream] = {}
        #: session id -> node name.  Session ids are allocated per node,
        #: so two nodes can hand out the same id; mapping them per client
        #: connection keeps that collision away from everything except a
        #: client interleaving concurrent backups to different jobs on one
        #: socket (which the CLI never does — it opens one connection per
        #: invocation).
        self.sessions: Dict[int, str] = {}
        #: Last node that answered an unkeyed read for this connection.
        self.pin: Optional[str] = None


class FrontDoorRouter(AsyncFrameServer):
    """The cluster's single client-facing address."""

    def __init__(
        self,
        membership: ClusterMembership,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        state_dir: Optional[Path] = None,
        probe_interval: float = DEFAULT_PROBE_INTERVAL,
        probe_timeout: float = DEFAULT_PROBE_TIMEOUT,
        mark_down_after: int = DEFAULT_MARK_DOWN_AFTER,
        proxy_timeout: float = DEFAULT_PROXY_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        # The executor carries blocking cluster work (inventory sweeps for
        # rebalance plans) so planning never stalls the proxy path.
        super().__init__(host, port, workers=2, worker_name="repro-route-worker")
        self.membership = membership
        self.proxy_timeout = proxy_timeout
        self.connect_timeout = connect_timeout
        registry = registry if registry is not None else get_registry()
        self.registry = registry
        self.health = HealthMonitor(
            membership,
            interval=probe_interval,
            probe_timeout=probe_timeout,
            mark_down_after=mark_down_after,
            registry=registry,
        )
        self.planner = RebalancePlanner(state_dir)
        # Router request ids (downstream HELLOs) get their own nonce so
        # they never collide with a client's id space.
        self._rid_base = random.SystemRandom().getrandbits(32) << 32
        self._rid_next = 0
        self._t_requests = registry.counter(
            "router.requests", "front-door requests handled, by message type"
        )
        self._t_proxied = registry.counter(
            "router.proxied_frames", "frames proxied to nodes, by message type"
        )
        self._t_proxy_latency = registry.histogram(
            "router.proxy_latency",
            "proxied round-trip seconds, by message type",
        )
        self._t_failovers = registry.counter(
            "router.failovers",
            "proxied reads answered by a node other than the first choice",
        ).labels()
        self._t_sessions = registry.counter(
            "router.sessions_routed", "backup sessions pinned to a node"
        ).labels()
        self._t_rebalance = registry.counter(
            "router.rebalance_steps", "rebalance steps, by lifecycle state"
        )
        self._t_epoch = registry.gauge(
            "router.ring_epoch", "current membership epoch"
        ).labels()
        self._t_connections = registry.counter(
            "router.connections", "client connections accepted"
        ).labels()
        self._t_epoch.set(float(membership.epoch))

    def _next_rid(self) -> int:
        self._rid_next += 1
        return self._rid_base | (self._rid_next & 0xFFFFFFFF)

    def shutdown(self) -> None:
        self.health.stop()
        super().shutdown()

    # -- connection pump ----------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._t_connections.inc()
        self._track(asyncio.current_task())
        wlock = asyncio.Lock()
        conn = _Connection()
        pending: set = set()
        try:
            while True:
                frame = await self._read_frame(reader)
                if frame is None:
                    break
                job = asyncio.ensure_future(
                    self._dispatch(conn, frame, writer, wlock)
                )
                pending.add(job)
                job.add_done_callback(pending.discard)
        except asyncio.CancelledError:
            pass
        finally:
            if pending:
                with contextlib.suppress(asyncio.CancelledError):
                    await asyncio.gather(*pending, return_exceptions=True)
            for downstream in conn.downstreams.values():
                with contextlib.suppress(Exception):
                    await downstream.close()
            with contextlib.suppress(Exception):
                writer.close()

    async def _dispatch(
        self,
        conn: _Connection,
        frame: Frame,
        writer: asyncio.StreamWriter,
        wlock: asyncio.Lock,
    ) -> None:
        self._t_requests.labels(type=m.msg_name(frame.msg_type)).inc()
        try:
            response = await self._handle_frame(conn, frame)
        except asyncio.CancelledError:
            return
        except Exception as exc:  # routing must never kill the pump
            response = _error_frame(
                frame.request_id, type(exc).__name__, str(exc)
            )
        await self._write_frame(writer, wlock, response)

    # -- local handlers -----------------------------------------------------------
    async def _handle_frame(self, conn: _Connection, frame: Frame) -> Frame:
        handler = _LOCAL_HANDLERS.get(frame.msg_type)
        if handler is not None:
            return handler(self, conn, frame)
        if frame.msg_type == m.REBALANCE_PLAN:
            return await self._on_rebalance_plan(frame)
        return await self._proxy(conn, frame)

    def _on_hello(self, conn: _Connection, frame: Frame) -> Frame:
        doc = m.decode_json(frame.payload)
        if isinstance(doc, dict):
            conn.hello_doc = doc
        return Frame(
            m.HELLO_OK,
            frame.request_id,
            m.encode_json({
                "server": "repro-route",
                "cluster_epoch": self.membership.epoch,
                "client": doc.get("client", "") if isinstance(doc, dict) else "",
            }),
        )

    def _on_ping(self, conn: _Connection, frame: Frame) -> Frame:
        return Frame(m.PONG, frame.request_id, frame.payload)

    def _on_node_join(self, conn: _Connection, frame: Frame) -> Frame:
        doc = m.decode_json(frame.payload)
        name = str(doc.get("name", ""))
        address = str(doc.get("address", ""))
        try:
            changed = self.membership.join(name, address)
        except MembershipError as exc:
            return _error_frame(frame.request_id, "MembershipError", str(exc))
        self._t_epoch.set(float(self.membership.epoch))
        return Frame(
            m.NODE_JOIN_OK,
            frame.request_id,
            m.encode_json({
                "epoch": self.membership.epoch,
                "changed": changed,
                "nodes": self.membership.names(),
            }),
        )

    def _on_node_leave(self, conn: _Connection, frame: Frame) -> Frame:
        doc = m.decode_json(frame.payload)
        name = str(doc.get("name", ""))
        changed = self.membership.leave(name)
        self._t_epoch.set(float(self.membership.epoch))
        return Frame(
            m.NODE_LEAVE_OK,
            frame.request_id,
            m.encode_json({
                "epoch": self.membership.epoch,
                "changed": changed,
                "nodes": self.membership.names(),
            }),
        )

    def _on_cluster_status(self, conn: _Connection, frame: Frame) -> Frame:
        status = self.membership.describe()
        status["rebalance"] = self.planner.summary()
        return Frame(m.CLUSTER_STATUS_OK, frame.request_id, m.encode_json(status))

    def _on_rebalance_ack(self, conn: _Connection, frame: Frame) -> Frame:
        doc = m.decode_json(frame.payload)
        step_id = str(doc.get("id", ""))
        known = self.planner.ack(step_id)
        if known:
            self._t_rebalance.labels(state="acked").inc()
        return Frame(
            m.REBALANCE_ACK_OK,
            frame.request_id,
            m.encode_json({"id": step_id, "known": known}),
        )

    async def _on_rebalance_plan(self, frame: Frame) -> Frame:
        """Build (or resume) the move plan for the current epoch.

        The inventory sweep is blocking socket work — it runs on the
        worker executor so planning never stalls the proxy path.
        """
        epoch = self.membership.epoch
        ring = self.membership.ring()
        live = {
            name: self.membership.address(name)
            for name in self.membership.live_names()
        }
        retry = RetryPolicy(
            max_attempts=2, timeout=self.proxy_timeout,
            connect_timeout=self.connect_timeout,
        )
        inventories = await self._in_executor(collect_inventories, live, retry)
        plan = self.planner.current(ring, inventories, epoch)
        planned = sum(1 for s in plan["steps"] if not s["done"])
        self._t_rebalance.labels(state="planned").inc(planned)
        doc = dict(plan)
        doc["addresses"] = self.membership.addresses()
        return Frame(m.REBALANCE_PLAN_OK, frame.request_id, m.encode_json(doc))

    # -- the proxy path -----------------------------------------------------------
    async def _downstream(self, conn: _Connection, node: str) -> _Downstream:
        downstream = conn.downstreams.get(node)
        if downstream is None:
            downstream = _Downstream(node, self.membership.address(node), self)
            conn.downstreams[node] = downstream
        try:
            await downstream.ensure(conn.hello_doc)
        except Exception:
            conn.downstreams.pop(node, None)
            with contextlib.suppress(Exception):
                await downstream.close()
            raise
        return downstream

    async def _forward(self, conn: _Connection, node: str, frame: Frame) -> Frame:
        """One proxied round trip; transport failure counts as a probe
        failure (the data path is a health signal too) and the downstream
        is torn down so the next use reconnects."""
        t0 = wall_now()
        try:
            downstream = await self._downstream(conn, node)
            response = await downstream.call(frame, timeout=self.proxy_timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError, RouteError):
            downstream = conn.downstreams.pop(node, None)
            if downstream is not None:
                with contextlib.suppress(Exception):
                    await downstream.close()
            self.health.note_failure(node)
            raise
        self._t_proxied.labels(type=m.msg_name(frame.msg_type)).inc()
        self._t_proxy_latency.labels(type=m.msg_name(frame.msg_type)).observe(
            wall_now() - t0
        )
        return response

    def _live_candidates(self, conn: _Connection, preferred: Optional[str]) -> List[str]:
        live = self.membership.live_names()
        ordered: List[str] = []
        for name in ([preferred] if preferred else []) + [conn.pin or ""] + live:
            if name and name in live and name not in ordered:
                ordered.append(name)
        return ordered

    async def _ask_live(
        self,
        conn: _Connection,
        msg_type: int,
        payload: bytes,
        unreachable: Optional[set] = None,
        skip: Iterable[str] = (),
    ):
        """Ask the live candidates in turn; yield ``(node, response)`` for
        each one that answered without ``ERROR``.

        The one "ask around" loop under the fan-outs and deep fallbacks: a
        node that cannot be reached is passed over — and recorded in
        ``unreachable`` when the caller tracks who is de-facto down for
        this request — and an ``ERROR`` means *this node doesn't hold it*.
        ``skip`` names nodes already known unreachable (asking again would
        only wait out another timeout).  A caller that needs one answer
        breaks out of the loop.
        """
        for node in self._live_candidates(conn, None):
            if node in skip:
                continue
            try:
                response = await self._forward(
                    conn, node, Frame(msg_type, self._next_rid(), payload)
                )
            except (ConnectionError, OSError, asyncio.TimeoutError, RouteError):
                if unreachable is not None:
                    unreachable.add(node)
                continue
            if response.msg_type != m.ERROR:
                yield node, response

    def _primary_for_job(self, job: str) -> Optional[str]:
        """First *live* node in ring order for the job key."""
        ring = self.membership.ring()
        live = set(self.membership.live_names())
        for name in ring.replicas(f"job:{job}", rf=len(ring.nodes)):
            if name in live:
                return name
        return None

    async def _proxy(self, conn: _Connection, frame: Frame) -> Frame:
        if frame.msg_type == m.SESSION_BEGIN:
            return await self._proxy_session_begin(conn, frame)
        if frame.msg_type in _SESSION_PREFIXED:
            if len(frame.payload) < 4:
                return _error_frame(
                    frame.request_id, "ProtocolError", "missing session prefix"
                )
            session = m._U32.unpack_from(frame.payload)[0]
            node = conn.sessions.get(session)
            if node is None:
                return _error_frame(
                    frame.request_id, "KeyError", f"unknown session {session}"
                )
            return await self._forward(conn, node, frame)
        if frame.msg_type in _SESSION_JSON:
            doc = m.decode_json(frame.payload)
            session = int(doc.get("session", -1))
            node = conn.sessions.get(session)
            if node is None:
                return _error_frame(
                    frame.request_id, "KeyError", f"unknown session {session}"
                )
            response = await self._forward(conn, node, frame)
            if response.msg_type != m.ERROR:
                conn.sessions.pop(session, None)
            return response
        if frame.msg_type == m.RUNS:
            return await self._proxy_runs(conn, frame)
        if frame.msg_type == m.ARCHIVE_STATUS:
            return await self._proxy_archive_status(conn, frame)
        if frame.msg_type == m.META_GET:
            return await self._proxy_meta_get(conn, frame)
        if frame.msg_type == m.FORGET:
            return await self._proxy_forget(conn, frame)
        if frame.msg_type in _FAILOVER_READS:
            return await self._proxy_with_failover(conn, frame)
        # Everything else (STATS, GC, VERIFY, DEDUP2, REPL_STATUS...) goes
        # to the pinned node, else the first live one.
        candidates = self._live_candidates(conn, None)
        if not candidates:
            return _error_frame(
                frame.request_id, "Unavailable", "no live nodes in the cluster"
            )
        return await self._forward(conn, candidates[0], frame)

    async def _proxy_session_begin(self, conn: _Connection, frame: Frame) -> Frame:
        doc = m.decode_json(frame.payload)
        job = str(doc.get("job", ""))
        node = self._primary_for_job(job) if job else None
        if node is None:
            return _error_frame(
                frame.request_id, "Unavailable",
                f"no live node to own job {job!r}",
            )
        response = await self._forward(conn, node, frame)
        if response.msg_type == m.SESSION_OK:
            session = int(m.decode_json(response.payload).get("session", -1))
            if session >= 0:
                conn.sessions[session] = node
                self._t_sessions.inc()
        return response

    async def _proxy_runs(self, conn: _Connection, frame: Frame) -> Frame:
        """``RUNS`` without a job fans out and merges (cluster view); with
        a job it routes like the job's sessions do, with failover."""
        doc = m.decode_json(frame.payload)
        if doc.get("job"):
            return await self._proxy_with_failover(
                conn, frame, preferred=self._primary_for_job(str(doc["job"]))
            )
        merged: List[dict] = []
        answered = False
        async for _, response in self._ask_live(conn, m.RUNS, frame.payload):
            answered = True
            merged.extend(m.decode_json(response.payload))
        if not answered:
            return _error_frame(
                frame.request_id, "Unavailable", "no live node answered RUNS"
            )
        merged.sort(key=lambda r: (r.get("job", ""), r.get("run_id", 0)))
        return Frame(m.RUNS_OK, frame.request_id, m.encode_json(merged))

    async def _proxy_archive_status(self, conn: _Connection, frame: Frame) -> Frame:
        """``ARCHIVE_STATUS`` fans out to every live node and merges: the
        cluster view unions each node's archived chains (an origin+job chain
        lives on one archive node, so the union is disjoint), keeping the
        per-node detail under ``nodes``.  The merged ``origins`` map keeps
        the response shape of a single archive node, so a point-in-time
        restore pointed at the router resolves chains cluster-wide and the
        DELTA_FETCHes that follow fail over to whichever node holds them."""
        nodes: Dict[str, dict] = {}
        origins: Dict[str, dict] = {}
        async for node, response in self._ask_live(
            conn, m.ARCHIVE_STATUS, frame.payload
        ):
            doc = m.decode_json(response.payload)
            nodes[node] = doc
            for origin, jobs in (doc.get("origins") or {}).items():
                origins.setdefault(origin, {}).update(jobs)
        if not nodes:
            return _error_frame(
                frame.request_id, "Unavailable", "no live node answered ARCHIVE_STATUS"
            )
        merged = {"nodes": nodes, "origins": origins}
        return Frame(m.ARCHIVE_STATUS_OK, frame.request_id, m.encode_json(merged))

    async def _resolve_run_job(
        self, conn: _Connection, run_id: int, job: Optional[str] = None
    ) -> Tuple[Dict[str, str], set]:
        """Which job(s) record (per-vault) ``run_id``, cluster-wide?

        Run ids collide across vaults — every node numbers its own runs
        from 1 — so before routing a run-keyed frame the router asks the
        live set (small ``RUNS`` queries) who actually records it.
        Returns ``({job: first node recording it}, unreachable nodes)``;
        more than one owner key means the bare run id is ambiguous and
        the caller must refuse to guess, and an unreachable node is
        de-facto down for this request even before the health monitor
        marks it.  ``job`` narrows the sweep to that job's chain.
        """
        owners: Dict[str, str] = {}
        unreachable: set = set()
        payload = m.encode_json({"job": job} if job else {})
        async for node, response in self._ask_live(
            conn, m.RUNS, payload, unreachable
        ):
            for run in m.decode_json(response.payload):
                if int(run.get("run_id", -1)) == run_id:
                    owners.setdefault(str(run.get("job", "")), node)
        return owners, unreachable

    async def _proxy_meta_get(self, conn: _Connection, frame: Frame) -> Frame:
        """Route ``META_GET`` by (job, run id), never by run id alone.

        A job-qualified frame is safe to fail over: nodes validate the
        job against their own catalog, so a colliding run id on the wrong
        vault answers ERROR instead of another job's file list.  A bare
        run id is first resolved to its job via the live set — and
        refused as ambiguous when two vaults both record it.
        """
        try:
            doc = m.decode_json(frame.payload)
            run_id = int(doc.get("run_id", -1))
        except (m.MessageError, TypeError, ValueError):
            return _error_frame(
                frame.request_id, "ProtocolError", "malformed META_GET payload"
            )
        job = str(doc.get("job") or "")
        unreachable: set = set()
        if not job:
            owners, unreachable = await self._resolve_run_job(conn, run_id)
            if len(owners) > 1:
                return _error_frame(
                    frame.request_id, "AmbiguousRun",
                    f"run {run_id} is recorded by jobs {sorted(owners)}; "
                    "qualify the request with a job",
                )
            if owners:
                job = next(iter(owners))
        if job:
            doc["job"] = job
            frame = Frame(m.META_GET, frame.request_id, m.encode_json(doc))
            return await self._proxy_with_failover(
                conn, frame, preferred=self._primary_for_job(job), job=job
            )
        # No live node records the run: the origin is dead (possibly not
        # yet marked down — the resolve sweep's transport failures count),
        # and only the mirrored catalogs on its replicas can describe it.
        synthesized = await self._meta_get_from_catalogs(
            conn, frame, extra_down=unreachable
        )
        if synthesized is not None:
            self._t_failovers.inc()
            return synthesized
        return _error_frame(
            frame.request_id, "Unavailable",
            f"no live node or mirrored catalog records run {run_id}",
        )

    async def _proxy_forget(self, conn: _Connection, frame: Frame) -> Frame:
        """Route ``FORGET`` to exactly one owner — destructive frames
        never fail over.

        Retrying a "no such run" ERROR on the next live node would delete
        an unrelated job's run that happens to share the per-vault id
        (every vault has a run 1).  Instead the run is resolved to its
        owning (job, node); an ERROR from the owner goes back to the
        client verbatim.
        """
        try:
            doc = m.decode_json(frame.payload)
            run_id = int(doc.get("run_id", -1))
        except (m.MessageError, TypeError, ValueError):
            return _error_frame(
                frame.request_id, "ProtocolError", "malformed FORGET payload"
            )
        job = str(doc.get("job") or "")
        owners, _ = await self._resolve_run_job(conn, run_id, job=job or None)
        if not job:
            if len(owners) > 1:
                return _error_frame(
                    frame.request_id, "AmbiguousRun",
                    f"run {run_id} is recorded by jobs {sorted(owners)}; "
                    "qualify the forget with a job",
                )
            if owners:
                job = next(iter(owners))
        node = owners.get(job) if job else None
        if node is None:
            # Nobody live records it (or the payload was never resolvable):
            # let the job's primary — or any live node — answer its own
            # error rather than sweeping the cluster.
            node = self._primary_for_job(job) if job else None
        if node is None:
            candidates = self._live_candidates(conn, None)
            if not candidates:
                return _error_frame(
                    frame.request_id, "Unavailable", "no live nodes in the cluster"
                )
            node = candidates[0]
        if job:
            doc["job"] = job
            frame = Frame(m.FORGET, frame.request_id, m.encode_json(doc))
        return await self._forward(conn, node, frame)

    async def _proxy_with_failover(
        self,
        conn: _Connection,
        frame: Frame,
        preferred: Optional[str] = None,
        job: Optional[str] = None,
    ) -> Frame:
        """Try each live node until one answers without error.

        An ``ERROR`` response ("no such run", "fingerprint not stored")
        means *this node doesn't hold it*, not that nobody does — with a
        replica factor over one, some other node usually does.
        """
        last: Optional[Frame] = None
        candidates = self._live_candidates(conn, preferred)
        if not candidates:
            return _error_frame(
                frame.request_id, "Unavailable", "no live nodes in the cluster"
            )
        unreachable: set = set()
        for i, node in enumerate(candidates):
            try:
                response = await self._forward(conn, node, frame)
            except (ConnectionError, OSError, asyncio.TimeoutError, RouteError):
                # De-facto down for this request, even if the health
                # monitor has not marked it yet (SIGKILL to first missed
                # probe is a real window).
                unreachable.add(node)
                continue
            if response.msg_type != m.ERROR:
                if i > 0:
                    self._t_failovers.inc()
                conn.pin = node
                return response
            last = response
        # No single node carried the whole answer; the deep fallbacks
        # reassemble one from the surviving copies.
        if frame.msg_type == m.CHUNK_READ:
            split = await self._chunk_read_split(conn, frame)
            if split is not None:
                self._t_failovers.inc()
                return split
        if frame.msg_type == m.META_GET:
            synthesized = await self._meta_get_from_catalogs(
                conn, frame, extra_down=unreachable, job=job
            )
            if synthesized is not None:
                self._t_failovers.inc()
                return synthesized
        return last if last is not None else _error_frame(
            frame.request_id, "Unavailable", "no live node answered"
        )

    async def _chunk_read_split(
        self, conn: _Connection, frame: Frame
    ) -> Optional[Frame]:
        """Reassemble a CHUNK_READ batch no single node serves whole.

        A batch can span containers whose replica sets land on different
        surviving nodes after the origin died; per-fingerprint probes let
        each survivor contribute the chunks it holds.  (The frame-level
        analogue of the client-side rule: a reader that holds the replica
        addresses itself gets the same effect from
        :class:`repro.net.client.WireSource` serving part of a window.)
        """
        try:
            fps, _ = m.decode_fps(frame.payload)
        except m.MessageError:
            return None
        chunks: List[Tuple[bytes, bytes]] = []
        for fp in fps:
            data: Optional[bytes] = None
            async for _, response in self._ask_live(
                conn, m.CHUNK_READ, m.encode_fps([fp])
            ):
                got, _ = m.decode_chunk_batch(response.payload)
                if got:
                    data = got[0][1]
                    break
            if data is None:
                return None  # a chunk nobody holds: the batch is lost
            chunks.append((fp, data))
        return Frame(
            m.CHUNK_DATA, frame.request_id, m.encode_chunk_batch(chunks)
        )

    async def _meta_get_from_catalogs(
        self,
        conn: _Connection,
        frame: Frame,
        extra_down: Optional[set] = None,
        job: Optional[str] = None,
    ) -> Optional[Frame]:
        """Synthesize META_ENTRIES for a dead origin's run from a mirrored
        catalog on a surviving replica.

        The replicator ships the full run catalog (file metadata + hex
        fingerprint indices) alongside containers, so any node holding the
        dead origin's replicas can describe its runs even though only the
        origin's vault ever recorded them.  Catalog runs are matched on
        (job, run id) when the job is known; without one, a run id that
        two dead origins' catalogs both record under different jobs is
        answered as ambiguous rather than guessed.
        """
        try:
            doc = m.decode_json(frame.payload)
            run_id = int(doc.get("run_id", -1))
        except (m.MessageError, TypeError, ValueError):
            return None
        job = job or str(doc.get("job") or "")
        extra_down = extra_down or set()
        reachable = set(self.membership.live_names()) - extra_down
        down = [
            n for n in self.membership.names() if n not in reachable
        ]
        matches: Dict[str, list] = {}  # job -> the run's file indices
        for origin in down:
            catalog = None
            async for _, response in self._ask_live(
                conn, m.CATALOG_FETCH, m.encode_json({"origin": origin}),
                skip=extra_down,
            ):
                catalog = m.decode_json(response.payload).get("catalog")
                break
            for run in mirrored_runs(catalog, run_id):
                if not job or run.job == job:
                    matches.setdefault(run.job, run.files)
        if len(matches) > 1:
            return _error_frame(
                frame.request_id, "AmbiguousRun",
                f"run {run_id} is mirrored for jobs {sorted(matches)}; "
                "qualify the request with a job",
            )
        if not matches:
            return None
        return Frame(
            m.META_ENTRIES,
            frame.request_id,
            m.encode_index_entries(next(iter(matches.values()))),
        )


_LOCAL_HANDLERS = {
    m.HELLO: FrontDoorRouter._on_hello,
    m.PING: FrontDoorRouter._on_ping,
    m.NODE_JOIN: FrontDoorRouter._on_node_join,
    m.NODE_LEAVE: FrontDoorRouter._on_node_leave,
    m.CLUSTER_STATUS: FrontDoorRouter._on_cluster_status,
    m.REBALANCE_ACK: FrontDoorRouter._on_rebalance_ack,
}
