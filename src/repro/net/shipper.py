"""The asynchronous shipping engine: after dedup-2, per peer, off the inline path.

Everything DEBAR ships to another node — sealed containers to replica
peers (:class:`~repro.replication.replicator.Replicator`), per-run deltas
to archive peers (:class:`~repro.archive.shipper.ArchiveShipper`) — leaves
through one :class:`AsyncShipper` riding beside a
:class:`~repro.system.vault.DebarVault`.  ``notify_run`` is called strictly
*after* a run's dedup-2 and catalog commit, diffs what the vault holds
against each peer's acked state and enqueues what is still owed; the
inline backup path never waits on a peer.  The engine owns the mechanism:

* one worker thread and one :class:`~repro.net.client.NetClient` per
  peer, draining that peer's FIFO of tasks **in order**;
* a shared **in-flight window** (semaphore) bounding pushes in the air,
  and a bounded queue for **backpressure** — ``sync`` past
  :attr:`~AsyncShipper.MAX_PENDING` blocks the caller instead of growing
  without bound;
* failure handling: a :class:`~repro.net.client.RemoteError` means the
  peer executed and refused (corrupt image, out-of-order chain), so
  retrying identical bytes cannot succeed — the task is dropped and the
  next ``sync`` re-evaluates what is owed; a transport failure (after the
  client's own retries) means the peer is down — the task goes back to
  the **head** of its lane and the worker backs off (0.2 s doubling to
  5 s).  Head-of-line is what an order-dependent lane needs and costs an
  unordered one nothing, so it is the one rule;
* an optional **idle barrier**: work a policy marks due runs only when
  that peer's queue is empty and nothing of its is in flight;
* acked state persisted per peer in ``<vault>/<STATE_FILE>`` (atomic
  tmp + replace), so a restarted daemon resumes where it left off.  Pushes
  are idempotent end to end, so a lost state file — or a crash between a
  push and its ack — merely causes harmless re-pushes.

A subclass supplies only policy: what is owed (:meth:`~AsyncShipper._owed`),
how one task is pushed (:meth:`~AsyncShipper._push`), how an ack is folded
and (de)serialised, and optionally the barrier (:meth:`~AsyncShipper._on_idle`).
Telemetry common to every shipper: ``<PREFIX>.queue_depth``,
``<PREFIX>.lag``, ``<PREFIX>.push_errors``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.durability.fsshim import atomic_write
from repro.net.client import NetClient, RemoteError, RetryPolicy
from repro.net.framing import ProtocolError
from repro.telemetry.registry import MetricsRegistry, get_registry

#: Seconds between retries while a peer stays unreachable (capped backoff).
_BACKOFF_BASE = 0.2
_BACKOFF_MAX = 5.0

#: Worker task token for the idle barrier (never equal to a policy's task).
_IDLE = object()


class _PeerChannel:
    """One peer's shipment lane: a FIFO of tasks + the idle-barrier flag."""

    def __init__(self, name: str, host: str, port: int) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.queue: Deque[Hashable] = deque()
        self.queued: Set[Hashable] = set()
        self.idle_due = False
        self.in_flight = 0
        self.errors = 0
        self.thread: Optional[threading.Thread] = None


class AsyncShipper:
    """Per-peer asynchronous shipment of what a vault owes its peers."""

    #: Ack-state file name inside the vault root.
    STATE_FILE: str
    #: Metric family, worker-thread and client-name prefix.
    PREFIX: str
    #: Bound on concurrent in-flight pushes across all peers.
    WINDOW: int
    #: Bound on queued (not yet in-flight) tasks before ``sync`` blocks.
    MAX_PENDING = 4096
    #: Per-peer ``status()`` key exposing the idle-barrier flag (policies
    #: without a barrier leave it unset and the key is omitted).
    IDLE_FLAG: Optional[str] = None

    def __init__(
        self,
        vault,
        node_name: str,
        peers: Dict[str, Tuple[str, int]],
        registry: Optional[MetricsRegistry] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if node_name in peers:
            raise ValueError(f"node {node_name!r} cannot be its own peer")
        self.vault = vault
        self.node_name = node_name
        self.retry = retry if retry is not None else RetryPolicy()
        self._window = threading.Semaphore(self.WINDOW)
        self._cond = threading.Condition()  # over an RLock: re-entrant
        self._paused = False
        self._stopping = False
        self._channels: Dict[str, _PeerChannel] = {
            name: _PeerChannel(name, host, port)
            for name, (host, port) in peers.items()
        }
        self._state_path = Path(vault.root) / self.STATE_FILE
        self._acked: Dict[str, object] = self._load_state()
        registry = registry if registry is not None else get_registry()
        self.registry = registry
        self._t_depth = registry.gauge(
            f"{self.PREFIX}.queue_depth", "shipments queued, not yet in flight"
        ).labels()
        self._t_lag = registry.gauge(
            f"{self.PREFIX}.lag", "shipments owed to peers (queued + in flight)"
        ).labels()
        self._t_errors = registry.counter(
            f"{self.PREFIX}.push_errors", "failed push attempts (retried with backoff)"
        )
        for channel in self._channels.values():
            channel.thread = threading.Thread(
                target=self._worker,
                args=(channel,),
                name=f"{self.PREFIX}-{channel.name}",
                daemon=True,
            )
            channel.thread.start()

    # -- policy (what a subclass supplies) ------------------------------------------
    def _owed(self) -> Iterable[Tuple[str, Hashable]]:
        """``(peer, task)`` for everything not yet acked, each peer's tasks
        in the order they must ship."""
        raise NotImplementedError

    def _push(self, client: NetClient, peer: str, task: Hashable) -> None:
        """Ship one task and :meth:`_ack` it (or decide nothing is owed)."""
        raise NotImplementedError

    def _on_idle(self, client: NetClient, peer: str) -> None:
        """The idle barrier's work; reached only after :meth:`_mark_idle_due`."""
        raise NotImplementedError

    def _load_acked(self, doc) -> object:
        """One peer's ack state from its serialised form (``None``: empty)."""
        raise NotImplementedError

    def _dump_acked(self, acked) -> object:
        """One peer's ack state as it is written to the state file."""
        raise NotImplementedError

    def _fold_ack(self, acked, task: Hashable) -> None:
        """Record that the peer acked ``task``."""
        raise NotImplementedError

    def _acked_status(self, acked) -> object:
        """One peer's ack state as ``status()`` reports it."""
        return self._dump_acked(acked)

    def _identity(self) -> dict:
        """Extra identity keys after ``node`` in the state file and status."""
        return {}

    # -- persistent state -----------------------------------------------------------
    def _load_state(self) -> Dict[str, object]:
        try:
            saved = json.loads(self._state_path.read_text()).get("acked", {})
        except (ValueError, OSError):
            saved = {}  # harmless: everything re-pushes idempotently
        return {name: self._load_acked(saved.get(name)) for name in self._channels}

    def _save_state(self) -> None:
        doc = {
            "node": self.node_name,
            **self._identity(),
            "peers": {
                name: f"{c.host}:{c.port}" for name, c in self._channels.items()
            },
            "acked": {
                name: self._dump_acked(acked) for name, acked in self._acked.items()
            },
        }
        atomic_write(self._state_path, json.dumps(doc, indent=1).encode())

    def _ack(self, peer: str, task: Hashable) -> None:
        with self._cond:
            self._fold_ack(self._acked[peer], task)
            self._save_state()

    # -- enqueueing -----------------------------------------------------------------
    def _pending_total(self) -> int:
        return sum(len(c.queue) for c in self._channels.values())

    def _in_flight_total(self) -> int:
        return sum(c.in_flight for c in self._channels.values())

    def _publish_gauges(self) -> None:
        depth = self._pending_total()
        self._t_depth.set(depth)
        self._t_lag.set(depth + self._in_flight_total())

    def sync(self) -> int:
        """Diff the vault against acked state; enqueue what's owed.

        Returns the number of shipments enqueued.  Blocks only when the
        queue is at :attr:`MAX_PENDING` (backpressure), never on the
        network and never on chunk I/O.
        """
        enqueued = 0
        for peer, task in self._owed():
            channel = self._channels[peer]
            with self._cond:
                if task in channel.queued:
                    continue
                while self._pending_total() >= self.MAX_PENDING and not self._stopping:
                    self._cond.wait(0.05)
                if self._stopping:
                    return enqueued
                channel.queue.append(task)
                channel.queued.add(task)
                enqueued += 1
                self._publish_gauges()
                self._cond.notify_all()
        return enqueued

    def notify_run(self, run=None) -> None:
        """Hook for :meth:`DebarVault.backup_stream`: a run just committed
        (dedup-2 complete, containers sealed, catalog written)."""
        self.sync()

    def _mark_idle_due(self) -> None:
        """Owe every peer one :meth:`_on_idle` once its lane is idle."""
        with self._cond:
            for channel in self._channels.values():
                channel.idle_due = True
            self._cond.notify_all()

    # -- flow control ---------------------------------------------------------------
    def pause(self) -> None:
        """Stall the queue (tests and benchmarks): nothing ships until
        :meth:`resume`; enqueueing and lag accounting continue."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def lag(self) -> int:
        with self._cond:
            return self._pending_total() + self._in_flight_total()

    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Block until every queued shipment is acked (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self.lag() == 0 and not any(
                    c.idle_due for c in self._channels.values()
                ):
                    return True
                if self._stopping:
                    return False
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(0.05 if remaining is None else min(0.05, remaining))

    def close(self, drain: bool = True, timeout: Optional[float] = 30.0) -> bool:
        """Stop the workers; with ``drain`` first wait for the queue."""
        drained = self.drain(timeout) if drain else False
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for channel in self._channels.values():
            channel.thread.join(timeout=5.0)
        return drained

    # -- status ---------------------------------------------------------------------
    def status(self) -> dict:
        """JSON-able outbound state (the ``repro repl-status`` /
        ``archive-status`` ``outbound`` body)."""
        with self._cond:
            peers = {}
            for name, c in self._channels.items():
                peers[name] = {
                    "address": f"{c.host}:{c.port}",
                    "queued": len(c.queue),
                    "in_flight": c.in_flight,
                    "acked": self._acked_status(self._acked[name]),
                    "errors": c.errors,
                }
                if self.IDLE_FLAG is not None:
                    peers[name][self.IDLE_FLAG] = c.idle_due
            return {
                "node": self.node_name,
                **self._identity(),
                "peers": peers,
                "lag": self.lag(),
            }

    # -- the worker -----------------------------------------------------------------
    def _next_task(self, channel: _PeerChannel):
        """Blocks until this peer owes something; ``None`` means exit.

        The idle barrier (``_IDLE``) is handed out only when the lane is
        empty *and* nothing of this peer's is in flight, so whatever it
        ships can never lead the tasks queued before it.
        """
        with self._cond:
            while True:
                if self._stopping:
                    return None
                if not self._paused:
                    task = None
                    if channel.queue:
                        task = channel.queue.popleft()
                        channel.queued.discard(task)
                    elif channel.idle_due and channel.in_flight == 0:
                        channel.idle_due = False
                        task = _IDLE
                    if task is not None:
                        channel.in_flight += 1
                        self._publish_gauges()
                        return task
                self._cond.wait(0.1)

    def _settle(self, channel: _PeerChannel, failed=False, requeue=None) -> None:
        """One task left flight: acked, dropped (``failed``) or requeued."""
        with self._cond:
            if requeue is _IDLE:
                channel.idle_due = True
            elif requeue is not None and requeue not in channel.queued:
                # Head of the line, not the tail: an order-dependent lane
                # (the archive's per-job FIFO contract) must retry the same
                # task before any later one.
                channel.queue.appendleft(requeue)
                channel.queued.add(requeue)
            channel.in_flight -= 1
            if failed:
                channel.errors += 1
                self._t_errors.labels(peer=channel.name).inc()
            self._publish_gauges()
            self._cond.notify_all()

    def _worker(self, channel: _PeerChannel) -> None:
        client = NetClient(
            channel.host,
            channel.port,
            client_name=f"{self.PREFIX}:{self.node_name}",
            retry=self.retry,
            registry=self.registry,
        )
        backoff = _BACKOFF_BASE
        try:
            while True:
                task = self._next_task(channel)
                if task is None:
                    return
                self._window.acquire()
                try:
                    if task is _IDLE:
                        self._on_idle(client, channel.name)
                    else:
                        self._push(client, channel.name, task)
                    backoff = _BACKOFF_BASE
                except RemoteError:
                    # The peer executed and refused: retrying identical
                    # bytes cannot succeed.  Drop; the next sync()
                    # re-evaluates what is owed.
                    self._settle(channel, failed=True)
                    continue
                except (ProtocolError, OSError):
                    # Transport failure after the client's own retries:
                    # the peer is down.  Requeue (head) and back off.
                    self._settle(channel, failed=True, requeue=task)
                    with self._cond:
                        if not self._stopping:
                            self._cond.wait(backoff)
                    backoff = min(backoff * 2, _BACKOFF_MAX)
                    continue
                finally:
                    self._window.release()
                self._settle(channel)
        finally:
            client.close()


def peers_from_state(vault_root, state_file: str) -> Dict[str, Tuple[str, int]]:
    """The peer map a vault last shipped to, read from its ack file — for
    consumers that want the peers without re-specifying them (e.g.
    ``repro scrub --repair`` healing from any replica automatically)."""
    try:
        doc = json.loads((Path(vault_root) / state_file).read_text())
    except (ValueError, OSError):
        return {}
    peers: Dict[str, Tuple[str, int]] = {}
    for name, address in doc.get("peers", {}).items():
        host, sep, port = str(address).rpartition(":")
        if sep and port.isdigit():
            peers[name] = (host or "127.0.0.1", int(port))
    return peers
