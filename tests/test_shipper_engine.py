"""The shipping engine on its own (DESIGN.md §11.2): a fake policy over an
in-process fake peer pins the mechanism `Replicator` and `ArchiveShipper`
share — lane order, the drop/requeue split, backpressure, the idle
barrier, drain — and literal ack files written by the pre-extraction
classes pin the on-disk and ``status()`` shapes.
"""

import json
import sys
import threading
import time
import types

import pytest

from repro.archive.shipper import ArchiveShipper
from repro.net import shipper as engine
from repro.net.client import RemoteError
from repro.net.shipper import AsyncShipper
from repro.replication.replicator import Replicator
from repro.telemetry.registry import MetricsRegistry


class FakePeer:
    """What landed at the peer, in arrival order; ``failures[item]`` is a
    list of exceptions raised (one per attempt) before the item lands."""

    def __init__(self):
        self.received = []
        self.failures = {}

    def accept(self, item):
        if self.failures.get(item):
            raise self.failures[item].pop(0)
        self.received.append(item)


class FakeShipper(AsyncShipper):
    STATE_FILE = "fake.json"
    PREFIX = "fake"
    WINDOW = 2
    IDLE_FLAG = "idle_due"

    def __init__(self, root, owed, **kw):
        self.owed = owed  # peer -> tasks the "vault" holds for it
        self.peers = {name: FakePeer() for name in owed}
        self.idle_lane_states = []
        super().__init__(
            types.SimpleNamespace(root=root), "origin",
            {name: ("127.0.0.1", 1) for name in owed}, **kw
        )

    def _owed(self):
        for peer, tasks in self.owed.items():
            for task in tasks:
                if task not in self._acked[peer]:
                    yield peer, task

    def _push(self, client, peer, task):
        self.peers[peer].accept(task)
        self._ack(peer, task)

    def _on_idle(self, client, peer):
        lane = self._channels[peer]
        self.idle_lane_states.append((len(lane.queue), lane.in_flight))
        self.peers[peer].accept("idle")

    def _load_acked(self, doc):
        return set(doc or ())

    def _dump_acked(self, acked):
        return sorted(acked)

    def _fold_ack(self, acked, task):
        acked.add(task)


@pytest.fixture()
def make_shipper(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "_BACKOFF_BASE", 0.01)
    made = []

    def make(owed, cls=FakeShipper, **kw):
        shipper = cls(tmp_path, owed, **kw)
        made.append(shipper)
        return shipper

    yield make
    for shipper in made:
        shipper.close(drain=False, timeout=1.0)
        for lane in shipper._channels.values():
            assert not lane.thread.is_alive()


class TestLane:
    def test_fifo_order_survives_a_transport_failure(self, make_shipper):
        registry = MetricsRegistry()
        shipper = make_shipper({"p": [1, 2, 3]}, registry=registry)
        shipper.peers["p"].failures[1] = [OSError("peer down")]
        shipper.pause()
        assert shipper.sync() == 3
        shipper.resume()
        assert shipper.drain(timeout=5.0)
        # Task 1 went back to the HEAD of the lane, not behind 2 and 3.
        assert shipper.peers["p"].received == [1, 2, 3]
        assert shipper.status()["peers"]["p"]["errors"] == 1
        assert registry.total("fake.push_errors") == 1
        assert registry.value("fake.lag") == 0

    def test_remote_error_drops_the_task_without_blocking_the_lane(
        self, make_shipper
    ):
        registry = MetricsRegistry()
        shipper = make_shipper({"p": [1, 2, 3]}, registry=registry)
        shipper.peers["p"].failures[2] = [RemoteError("ValueError", "refused")]
        shipper.pause()
        shipper.sync()
        shipper.resume()
        assert shipper.drain(timeout=5.0)
        assert shipper.peers["p"].received == [1, 3]
        status = shipper.status()
        assert status["lag"] == 0
        assert status["peers"]["p"] == {
            "address": "127.0.0.1:1", "queued": 0, "in_flight": 0,
            "acked": [1, 3], "errors": 1, "idle_due": False,
        }
        assert registry.total("fake.push_errors") == 1
        # Dropped, not acked: the next sync re-evaluates it as owed.
        assert shipper.sync() == 1
        assert shipper.drain(timeout=5.0)
        assert shipper.peers["p"].received == [1, 3, 2]

    def test_sync_blocks_at_the_pending_bound_until_close(self, make_shipper):
        class Bounded(FakeShipper):
            MAX_PENDING = 2

        shipper = make_shipper({"p": [1, 2, 3, 4, 5]}, cls=Bounded)
        shipper.pause()
        result = []
        caller = threading.Thread(
            target=lambda: result.append(shipper.sync()), daemon=True
        )
        caller.start()
        caller.join(timeout=0.3)
        assert caller.is_alive(), "sync() must block at MAX_PENDING"
        assert shipper.lag() == 2
        shipper.close(drain=False, timeout=1.0)
        caller.join(timeout=5.0)
        assert not caller.is_alive()
        assert result == [2]

    def test_drain_times_out_then_returns(self, make_shipper):
        shipper = make_shipper({"p": [1, 2]})
        shipper.pause()
        shipper.sync()
        t0 = time.monotonic()
        assert shipper.drain(timeout=0.1) is False
        assert time.monotonic() - t0 < 2.0
        shipper.resume()
        assert shipper.drain(timeout=5.0) is True
        assert shipper.lag() == 0

    def test_many_lanes_keep_order_and_accounting_under_thread_pressure(
        self, make_shipper
    ):
        # More lanes than cores, a shortened switch interval and transport
        # failures sprinkled in: every lane still delivers each task once,
        # in order, and the shared counters add up (a lost update on the
        # condition-guarded state would break one of these).
        tasks = list(range(150))
        failing = tasks[::10]
        registry = MetricsRegistry()
        shipper = make_shipper(
            {f"p{i}": list(tasks) for i in range(6)}, registry=registry
        )
        for peer in shipper.peers.values():
            peer.failures = {t: [OSError("blip")] for t in failing}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert shipper.sync() == 6 * len(tasks)
            assert shipper.drain(timeout=30.0)
        finally:
            sys.setswitchinterval(previous)
        for name, peer in shipper.peers.items():
            assert peer.received == tasks, name
            assert shipper._acked[name] == set(tasks)
        status = shipper.status()
        assert status["lag"] == 0
        assert all(p["errors"] == len(failing) for p in status["peers"].values())
        assert registry.total("fake.push_errors") == 6 * len(failing)
        assert registry.value("fake.queue_depth") == 0
        assert json.loads(shipper._state_path.read_text())["acked"] == {
            f"p{i}": tasks for i in range(6)
        }


class TestIdleBarrier:
    def test_runs_only_on_an_empty_idle_lane(self, make_shipper):
        shipper = make_shipper({"p": [1, 2, 3]})
        # Task 3 fails once in transit: the barrier must still wait for it.
        shipper.peers["p"].failures[3] = [OSError("peer down")]
        shipper.pause()
        shipper._mark_idle_due()
        shipper.sync()
        assert shipper.status()["peers"]["p"]["idle_due"] is True
        shipper.resume()
        assert shipper.drain(timeout=5.0)
        assert shipper.peers["p"].received == [1, 2, 3, "idle"]
        # Handed out with nothing queued and only itself in flight.
        assert shipper.idle_lane_states == [(0, 1)]

    def test_drain_waits_for_the_barrier_and_requeues_it_on_failure(
        self, make_shipper
    ):
        shipper = make_shipper({"p": []})
        shipper.peers["p"].failures["idle"] = [OSError("peer down")]
        shipper.pause()
        shipper._mark_idle_due()
        assert shipper.drain(timeout=0.1) is False  # owed, though lag is 0
        assert shipper.lag() == 0
        shipper.resume()
        assert shipper.drain(timeout=5.0)
        assert shipper.peers["p"].received == ["idle"]

    def test_never_runs_unless_marked(self, make_shipper):
        shipper = make_shipper({"p": [1]})
        shipper.notify_run()
        assert shipper.drain(timeout=5.0)
        assert shipper.peers["p"].received == [1]


#: ``replication.json`` / ``archive.json`` exactly as the pre-extraction
#: Replicator / ArchiveShipper wrote them (``json.dumps(doc, indent=1)``).
REPLICATION_JSON = (
    '{\n "node": "a",\n "replication_factor": 2,\n "peers": {\n'
    '  "b": "127.0.0.1:7001",\n  "c": "10.0.0.3:7003"\n },\n "acked": {\n'
    '  "b": [\n   0,\n   1,\n   5\n  ],\n  "c": []\n }\n}'
)
ARCHIVE_JSON = (
    '{\n "node": "a",\n "peers": {\n  "vaultkeep": "127.0.0.1:7002"\n },\n'
    ' "acked": {\n  "vaultkeep": {\n   "homes": 3,\n   "mail": 7\n  }\n }\n}'
)


class TestFrozenShapes:
    def test_replication_ack_file_and_status(self, tmp_path):
        path = tmp_path / "replication.json"
        path.write_text(REPLICATION_JSON)
        vault = types.SimpleNamespace(root=tmp_path)
        peers = {"b": ("127.0.0.1", 7001), "c": ("10.0.0.3", 7003)}
        replicator = Replicator(vault, "a", peers, replication_factor=2)
        try:
            assert replicator._acked == {"b": {0, 1, 5}, "c": set()}
            replicator._save_state()
            assert path.read_text() == REPLICATION_JSON
            assert replicator.status() == {
                "node": "a",
                "replication_factor": 2,
                "peers": {
                    "b": {"address": "127.0.0.1:7001", "queued": 0,
                          "in_flight": 0, "acked": 3, "errors": 0,
                          "catalog_dirty": False},
                    "c": {"address": "10.0.0.3:7003", "queued": 0,
                          "in_flight": 0, "acked": 0, "errors": 0,
                          "catalog_dirty": False},
                },
                "lag": 0,
            }
        finally:
            replicator.close(drain=False, timeout=1.0)
        from repro.replication.replicator import peers_from_state

        assert peers_from_state(tmp_path) == peers

    def test_archive_ack_file_and_status(self, tmp_path):
        path = tmp_path / "archive.json"
        path.write_text(ARCHIVE_JSON)
        vault = types.SimpleNamespace(root=tmp_path)
        peers = {"vaultkeep": ("127.0.0.1", 7002)}
        shipper = ArchiveShipper(vault, "a", peers)
        try:
            assert shipper._acked == {"vaultkeep": {"homes": 3, "mail": 7}}
            shipper._save_state()
            assert path.read_text() == ARCHIVE_JSON
            assert shipper.status() == {
                "node": "a",
                "peers": {
                    "vaultkeep": {"address": "127.0.0.1:7002", "queued": 0,
                                  "in_flight": 0,
                                  "acked": {"homes": 3, "mail": 7},
                                  "errors": 0},
                },
                "lag": 0,
            }
        finally:
            shipper.close(drain=False, timeout=1.0)
        from repro.archive.shipper import peers_from_state

        assert peers_from_state(tmp_path) == peers

    def test_unreadable_ack_file_means_nothing_acked(self, tmp_path):
        (tmp_path / "fake.json").write_text("{ torn")
        shipper = FakeShipper(tmp_path, {"p": [1]})
        try:
            assert shipper._acked == {"p": set()}
            assert json.loads(json.dumps(shipper.status()))["peers"]["p"]["acked"] == []
        finally:
            shipper.close(drain=False, timeout=1.0)
        assert engine.peers_from_state(tmp_path, "fake.json") == {}
        assert engine.peers_from_state(tmp_path, "absent.json") == {}
