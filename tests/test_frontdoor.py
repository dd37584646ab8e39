"""repro.frontdoor: membership, health, routing, failover, rebalancing.

The cluster tests run two real ``serve`` daemons (cross-replicating at
RF=2) behind a real :class:`FrontDoorRouter` on loopback sockets, then
drive everything a deployment would: a client backing up and restoring
*through* the router's proxy, a node killed mid-restore (the restore
must stay byte-identical via the replica set), and a third node joining
with the resulting rebalance plan executed — interrupted halfway and
resumed — until every vault passes a deep audit.

Health probes are driven manually (``probe_once``) so mark-down timing
is deterministic; the router's probe interval is set far above the test
horizon.
"""

import json
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.frontdoor.health import HealthMonitor
from repro.frontdoor.membership import ClusterMembership, MembershipError
from repro.frontdoor.rebalance import build_plan, execute_plan
from repro.frontdoor.router import FrontDoorRouter, _Downstream
from repro.net import messages as m
from repro.net.client import (
    NetClient,
    RemoteBackupClient,
    RemoteError,
    RetryPolicy,
    WireSource,
)
from repro.net.framing import Frame
from repro.net.server import serve_vault
from repro.replication.replicator import Replicator
from repro.storage.reader import ChunkReader
from repro.replication.ring import PlacementRing
from repro.system.vault import DebarVault
from repro.telemetry.registry import MetricsRegistry

FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.01, max_delay=0.05, timeout=5.0,
    connect_timeout=1.0,
)


def write_dataset(root, n_files=4, seed=11):
    rng = random.Random(seed)
    data = root / "data"
    data.mkdir(parents=True, exist_ok=True)
    for i in range(n_files):
        blob = rng.randbytes(2500)
        (data / f"f{i}.bin").write_bytes(blob + blob + bytes([i]) * 400)
    return data


def dataset_bytes(root):
    return sorted(p.read_bytes() for p in Path(root).rglob("*.bin"))


def start_daemon(vault, node_name):
    server = serve_vault(vault, node_name=node_name)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def start_router(membership, state_dir, registry=None, **kwargs):
    kwargs.setdefault("probe_interval", 3600.0)  # probes are manual in tests
    kwargs.setdefault("probe_timeout", 0.5)
    kwargs.setdefault("mark_down_after", 2)
    router = FrontDoorRouter(
        membership, state_dir=state_dir, registry=registry, **kwargs
    )
    thread = threading.Thread(target=router.serve_forever, daemon=True)
    thread.start()
    return router


@pytest.fixture()
def cluster(tmp_path):
    """Two cross-replicating daemons (RF=2) behind a router."""
    # Small containers so modest datasets seal several of them — the
    # rebalance plan needs a population of containers to move.
    vault_a = DebarVault(tmp_path / "a", container_bytes=1 << 14)
    vault_b = DebarVault(tmp_path / "b", container_bytes=1 << 14)
    server_a = start_daemon(vault_a, "a")
    server_b = start_daemon(vault_b, "b")
    repl_a = Replicator(
        vault_a, "a", {"b": (server_b.host, server_b.port)},
        replication_factor=2, retry=FAST_RETRY,
    )
    repl_b = Replicator(
        vault_b, "b", {"a": (server_a.host, server_a.port)},
        replication_factor=2, retry=FAST_RETRY,
    )
    vault_a.replicator = repl_a
    vault_b.replicator = repl_b
    registry = MetricsRegistry()
    membership = ClusterMembership(tmp_path / "state", replication_factor=2)
    membership.join("a", f"{server_a.host}:{server_a.port}")
    membership.join("b", f"{server_b.host}:{server_b.port}")
    router = start_router(membership, tmp_path / "state", registry=registry)
    c = SimpleNamespace(
        tmp=tmp_path,
        vaults={"a": vault_a, "b": vault_b},
        servers={"a": server_a, "b": server_b},
        replicators={"a": repl_a, "b": repl_b},
        membership=membership,
        router=router,
        registry=registry,
        dead=set(),
    )

    def kill(name):
        """SIGKILL-equivalent: no drain, no dismantled state."""
        c.dead.add(name)
        c.replicators[name].close(drain=False, timeout=0.5)
        c.servers[name].shutdown()
        c.servers[name].server_close()
        c.vaults[name].close()

    c.kill = kill
    try:
        yield c
    finally:
        c.router.shutdown()
        c.router.server_close()
        for name in c.vaults:
            if name not in c.dead:
                c.replicators[name].close(drain=False, timeout=0.5)
                c.servers[name].shutdown()
                c.servers[name].server_close()
                c.vaults[name].close()


def job_owned_by(membership, node):
    """A job name whose ring primary is ``node`` (deterministic search)."""
    ring = membership.ring()
    for i in range(200):
        job = f"job{i}"
        if ring.replicas(f"job:{job}", rf=1)[0] == node:
            return job
    raise AssertionError(f"no job hashes to {node} in 200 tries")


def rebalance_ack(net):
    """The ``ack`` callback a mover passes to :func:`execute_plan`."""
    return lambda step_id: net.call_json(m.REBALANCE_ACK, {"id": step_id})


class TestMembership:
    def test_epoch_moves_only_on_membership_change(self, tmp_path):
        ms = ClusterMembership(tmp_path / "s")
        assert ms.join("a", "127.0.0.1:1") and ms.epoch == 1
        assert ms.join("b", "127.0.0.1:2") and ms.epoch == 2
        # Idempotent re-join: no churn.
        assert not ms.join("a", "127.0.0.1:1")
        assert ms.epoch == 2
        # Health state is epoch-neutral.
        assert ms.record_probe("a", False, mark_down_after=1) == "down"
        assert ms.epoch == 2
        assert ms.live_names() == ["b"]
        assert sorted(ms.ring().nodes) == ["a", "b"]  # placement unchanged
        assert ms.record_probe("a", True) == "up"
        # Leave moves the epoch; unknown leave does not.
        assert ms.leave("a") and ms.epoch == 3
        assert not ms.leave("a") and ms.epoch == 3

    def test_persistence_resets_health_not_membership(self, tmp_path):
        ms = ClusterMembership(tmp_path / "s")
        ms.join("a", "127.0.0.1:1")
        ms.join("b", "127.0.0.1:2")
        ms.record_probe("b", False, mark_down_after=1)
        reloaded = ClusterMembership(tmp_path / "s")
        assert reloaded.epoch == 2
        assert reloaded.names() == ["a", "b"]
        # Optimistic restart: probes re-discover health.
        assert reloaded.live_names() == ["a", "b"]

    def test_rejects_bad_names_and_addresses(self, tmp_path):
        ms = ClusterMembership(tmp_path / "s")
        with pytest.raises(MembershipError):
            ms.join("", "127.0.0.1:1")
        with pytest.raises(MembershipError):
            ms.join("a", "no-port")
        with pytest.raises(MembershipError):
            ms.ring()  # empty cluster has no placement


class TestHealth:
    def test_mark_down_after_k_failures_and_fast_recovery(self, tmp_path):
        vault = DebarVault(tmp_path / "v")
        server = start_daemon(vault, "a")
        ms = ClusterMembership(tmp_path / "s")
        ms.join("a", f"{server.host}:{server.port}")
        registry = MetricsRegistry()
        monitor = HealthMonitor(
            ms, probe_timeout=0.5, mark_down_after=2, registry=registry
        )
        try:
            assert monitor.probe_once() == {"a": True}
            server.shutdown()
            server.server_close()
            assert monitor.probe_once() == {"a": False}
            assert ms.is_up("a"), "one failure must not mark down (K=2)"
            assert monitor.probe_once() == {"a": False}
            assert not ms.is_up("a")
            # One success marks it straight back up.
            server2 = start_daemon(vault, "a")
            ms.join("a", f"{server2.host}:{server2.port}")  # re-advertise
            assert monitor.probe_once() == {"a": True}
            assert ms.is_up("a")
            server2.shutdown()
            server2.server_close()
        finally:
            vault.close()


class TestSmartClient:
    """Where a cluster client's job lands when it talks only to the router."""

    def test_redirect_backup_lands_on_ring_owner(self, cluster, tmp_path):
        data = write_dataset(tmp_path / "ds")
        job = job_owned_by(cluster.membership, "b")
        client = RemoteBackupClient(
            cluster.router.host, cluster.router.port, retry=FAST_RETRY
        )
        try:
            run = client.backup(job, [data])
            # The router sent the session to the ring owner, not elsewhere.
            assert any(r.job == job for r in cluster.vaults["b"].runs())
            assert not any(r.job == job for r in cluster.vaults["a"].runs())
            # A restore by run id alone is located on that owner too.
            dest = tmp_path / "restore"
            client.restore(run.run_id, dest)
            assert dataset_bytes(dest) == dataset_bytes(data)
        finally:
            client.close()


class TestProxy:
    def test_backup_restore_through_router(self, cluster, tmp_path):
        data = write_dataset(tmp_path / "ds")
        job = job_owned_by(cluster.membership, "a")
        client = RemoteBackupClient(
            cluster.router.host, cluster.router.port, retry=FAST_RETRY
        )
        try:
            run = client.backup(job, [data])
            # Session frames were pinned to the ring owner, and only to it.
            assert any(r.job == job for r in cluster.vaults["a"].runs())
            assert not any(r.job == job for r in cluster.vaults["b"].runs())
            runs = client.runs()
            assert [r.run_id for r in runs] == [run.run_id]
            dest = tmp_path / "restore"
            client.restore(run.run_id, dest)
            assert dataset_bytes(dest) == dataset_bytes(data)
        finally:
            client.close()

    def test_runs_merges_across_nodes(self, cluster, tmp_path):
        job_a = job_owned_by(cluster.membership, "a")
        job_b = job_owned_by(cluster.membership, "b")
        data = write_dataset(tmp_path / "ds")
        client = RemoteBackupClient(
            cluster.router.host, cluster.router.port, retry=FAST_RETRY
        )
        try:
            client.backup(job_a, [data])
            client.backup(job_b, [data])
            jobs = sorted(r.job for r in client.runs())
            assert jobs == sorted([job_a, job_b])
        finally:
            client.close()

    def test_kill_mid_restore_fails_over_byte_identical(self, cluster, tmp_path):
        data = write_dataset(tmp_path / "ds", n_files=6)
        job = job_owned_by(cluster.membership, "a")
        client = RemoteBackupClient(
            cluster.router.host, cluster.router.port, retry=FAST_RETRY
        )
        try:
            run = client.backup(job, [data])
            assert cluster.replicators["a"].drain(timeout=10.0)
            # Mid-restore: the metadata fetch succeeded against the owner...
            entries = client.run_entries(run.run_id)
            # ...then the owner dies before any chunk is read (the
            # deterministic worst case of a SIGKILL mid-restore).
            cluster.kill("a")
            reader = ChunkReader(
                [("router", WireSource(client.net))],
                [fp for e in entries for fp in e.fingerprints],
            )
            dest = tmp_path / "restore"
            client.engine.restore_run(entries, reader, dest, "/")
            assert dataset_bytes(dest) == dataset_bytes(data)
            # The data path fed mark-down; probes finish the job.
            cluster.router.health.probe_once()
            cluster.router.health.probe_once()
            assert not cluster.membership.is_up("a")
        finally:
            client.close()

    def test_restore_of_dead_origin_uses_mirrored_catalog(self, cluster, tmp_path):
        """META_GET for a run only the dead node recorded is synthesized
        from the replica's mirrored catalog (restore starts after death)."""
        data = write_dataset(tmp_path / "ds")
        job = job_owned_by(cluster.membership, "a")
        client = RemoteBackupClient(
            cluster.router.host, cluster.router.port, retry=FAST_RETRY
        )
        try:
            run = client.backup(job, [data])
            assert cluster.replicators["a"].drain(timeout=10.0)
        finally:
            client.close()
        cluster.kill("a")
        # Deliberately BEFORE any probe ran: the owner is dead but not yet
        # marked down, the worst window — the router must treat the
        # transport failure itself as evidence and synthesize from the
        # survivor's mirrored catalog.
        client = RemoteBackupClient(
            cluster.router.host, cluster.router.port, retry=FAST_RETRY
        )
        try:
            dest = tmp_path / "restore"
            client.restore(run.run_id, dest)
            assert dataset_bytes(dest) == dataset_bytes(data)
        finally:
            client.close()
        cluster.router.health.probe_once()
        cluster.router.health.probe_once()
        assert cluster.membership.live_names() == ["b"]

    def test_cluster_status_reports_mark_down(self, cluster):
        cluster.kill("b")
        cluster.router.health.probe_once()
        cluster.router.health.probe_once()
        with NetClient(
            cluster.router.host, cluster.router.port, retry=FAST_RETRY
        ) as net:
            status = net.call_json(m.CLUSTER_STATUS, {})
        states = {n["name"]: n["state"] for n in status["nodes"]}
        assert states == {"a": "up", "b": "down"}
        assert status["epoch"] == cluster.membership.epoch

    def test_backup_fails_over_to_replica_when_owner_down(self, cluster, tmp_path):
        """SESSION_BEGIN picks the first *live* node in ring order, so a
        dead primary's jobs land on the next replica."""
        data = write_dataset(tmp_path / "ds")
        job = job_owned_by(cluster.membership, "a")
        cluster.kill("a")
        cluster.router.health.probe_once()
        cluster.router.health.probe_once()
        client = RemoteBackupClient(
            cluster.router.host, cluster.router.port, retry=FAST_RETRY
        )
        try:
            run = client.backup(job, [data])
            assert any(r.run_id == run.run_id for r in cluster.vaults["b"].runs())
        finally:
            client.close()


class TestRunIdCollision:
    """Run ids are per-vault — every node numbers its own runs from 1 —
    so a two-node cluster holds two different "run 1"s.  Routed reads
    must be (job, run id)-addressed, bare colliding ids refused rather
    than guessed, and the destructive FORGET must never fail over."""

    def _seed(self, cluster, tmp_path):
        """One run in each vault, both with run id 1, different data."""
        s = SimpleNamespace(
            job_a=job_owned_by(cluster.membership, "a"),
            job_b=job_owned_by(cluster.membership, "b"),
        )
        s.data_a = write_dataset(tmp_path / "da", seed=21)
        s.data_b = write_dataset(tmp_path / "db", seed=42)
        client = RemoteBackupClient(
            cluster.router.host, cluster.router.port, retry=FAST_RETRY
        )
        try:
            run_a = client.backup(s.job_a, [s.data_a])
            run_b = client.backup(s.job_b, [s.data_b])
        finally:
            client.close()
        assert run_a.run_id == run_b.run_id == 1, "collision is the premise"
        return s

    def test_proxied_restore_routes_by_job_not_run_id(self, cluster, tmp_path):
        s = self._seed(cluster, tmp_path)
        client = RemoteBackupClient(
            cluster.router.host, cluster.router.port, retry=FAST_RETRY
        )
        try:
            # Job-qualified restores each land on their own vault even
            # though both runs share id 1 (and b's job must not be
            # answered by a, whatever order failover tries nodes in).
            client.restore(1, tmp_path / "rb", job=s.job_b)
            assert dataset_bytes(tmp_path / "rb") == dataset_bytes(s.data_b)
            client.restore(1, tmp_path / "ra", job=s.job_a)
            assert dataset_bytes(tmp_path / "ra") == dataset_bytes(s.data_a)
            # A bare colliding run id is refused, not guessed.
            with pytest.raises(RemoteError) as err:
                client.run_entries(1)
            assert err.value.error == "AmbiguousRun"
        finally:
            client.close()

    def test_node_validates_job_on_meta_get_and_forget(self, cluster, tmp_path):
        s = self._seed(cluster, tmp_path)
        server = cluster.servers["a"]
        client = RemoteBackupClient(server.host, server.port, retry=FAST_RETRY)
        try:
            assert client.run_entries(1, job=s.job_a)
            with pytest.raises(RemoteError):
                client.run_entries(1, job=s.job_b)  # b's id collides on a
            with pytest.raises(RemoteError):
                client.forget(1, job=s.job_b)
            assert any(r.run_id == 1 for r in client.runs()), (
                "a mismatched forget must not delete the colliding run"
            )
        finally:
            client.close()

    def test_forget_routes_to_one_owner_and_never_fails_over(
        self, cluster, tmp_path
    ):
        s = self._seed(cluster, tmp_path)
        client = RemoteBackupClient(
            cluster.router.host, cluster.router.port, retry=FAST_RETRY
        )
        try:
            # Bare colliding id: refused.
            with pytest.raises(RemoteError) as err:
                client.forget(1)
            assert err.value.error == "AmbiguousRun"
            assert cluster.vaults["a"].runs() and cluster.vaults["b"].runs()
            # Qualified: deletes exactly the owning vault's run.
            client.forget(1, job=s.job_a)
            assert not cluster.vaults["a"].runs()
            assert [r.job for r in cluster.vaults["b"].runs()] == [s.job_b]
            # Owner down: the forget errors instead of failing over onto
            # the surviving vault's unrelated run 1.
            cluster.kill("b")
            cluster.router.health.probe_once()
            cluster.router.health.probe_once()
            with pytest.raises(RemoteError):
                client.forget(1, job=s.job_b)
        finally:
            client.close()


class TestDownstreamLifecycle:
    @staticmethod
    def _fake_router():
        from itertools import count

        rids = count(1)
        return SimpleNamespace(
            connect_timeout=2.0,
            _next_rid=lambda: (0xAB << 32) + next(rids),
        )

    def test_concurrent_ensure_opens_one_connection(self, tmp_path, monkeypatch):
        import asyncio

        vault = DebarVault(tmp_path / "v")
        server = start_daemon(vault, "a")
        opened = 0
        orig_open = asyncio.open_connection

        async def counting_open(*args, **kwargs):
            nonlocal opened
            opened += 1
            return await orig_open(*args, **kwargs)

        monkeypatch.setattr(asyncio, "open_connection", counting_open)
        try:

            async def go():
                d = _Downstream(
                    "a", f"{server.host}:{server.port}", self._fake_router()
                )
                await asyncio.gather(
                    d.ensure({"client": "t"}), d.ensure({"client": "t"})
                )
                await d.close()

            asyncio.run(go())
            assert opened == 1, "concurrent ensure() must share one connection"
        finally:
            server.shutdown()
            server.server_close()
            vault.close()

    def test_pump_death_drops_transport_for_instant_reconnect(self, tmp_path):
        import asyncio

        vault = DebarVault(tmp_path / "v")
        server = start_daemon(vault, "a")
        survivors = []

        async def go():
            d = _Downstream(
                "a", f"{server.host}:{server.port}", self._fake_router()
            )
            await d.ensure({"client": "t"})
            assert d._writer is not None
            server.shutdown()
            server.server_close()
            for _ in range(250):
                if d._writer is None:
                    break
                await asyncio.sleep(0.02)
            assert d._writer is None, (
                "a dead pump must drop the transport so the next frame "
                "reconnects instead of timing out against a dead socket"
            )
            # The same downstream object reconnects immediately.
            server2 = start_daemon(vault, "a")
            survivors.append(server2)
            d.address = f"{server2.host}:{server2.port}"
            await d.ensure({"client": "t"})
            response = await d.call(Frame(m.PING, 7, b""), timeout=5.0)
            assert response.msg_type == m.PONG
            await d.close()

        try:
            asyncio.run(go())
        finally:
            for server2 in survivors:
                server2.shutdown()
                server2.server_close()
            vault.close()


class TestRebalance:
    def test_join_plans_moves_resumable_and_audited(self, cluster, tmp_path):
        data = write_dataset(tmp_path / "ds", n_files=24, seed=5)
        job = job_owned_by(cluster.membership, "a")
        client = RemoteBackupClient(
            cluster.router.host, cluster.router.port, retry=FAST_RETRY
        )
        try:
            client.backup(job, [data])
        finally:
            client.close()
        assert cluster.replicators["a"].drain(timeout=10.0)

        # A third node joins over the wire (NODE_JOIN, as --advertise does).
        vault_c = DebarVault(cluster.tmp / "c")
        server_c = start_daemon(vault_c, "c")
        net = NetClient(cluster.router.host, cluster.router.port, retry=FAST_RETRY)
        try:
            before = cluster.membership.epoch
            ack = net.call_json(m.NODE_JOIN, {
                "name": "c", "address": f"{server_c.host}:{server_c.port}",
            })
            assert ack["changed"] and ack["epoch"] == before + 1

            plan = net.call_json(m.REBALANCE_PLAN, {})
            addresses = plan.pop("addresses")
            assert plan["epoch"] == cluster.membership.epoch
            steps = plan["steps"]
            assert steps, "a join must produce moves"
            assert all(s["dst"] == "c" for s in steps), (
                "with RF=2 over {a,b} fully replicated, only the new node "
                "can be missing copies"
            )
            # The ring says these exact moves (independent derivation).
            ring = cluster.membership.ring()
            for step in steps:
                assert "c" in ring.replicas_for_container(
                    step["origin"], step["container_id"]
                )

            # Execute one step, then "crash" the mover.
            report = execute_plan(
                plan, addresses, ack=rebalance_ack(net), retry=FAST_RETRY,
                limit=1,
            )
            assert report["executed"] == 1
            assert report["pending"] == len(steps) - 1

            # A fresh mover resumes the same plan: done work stays done.
            with NetClient(
                cluster.router.host, cluster.router.port, retry=FAST_RETRY
            ) as net2:
                resumed = net2.call_json(m.REBALANCE_PLAN, {})
                addresses2 = resumed.pop("addresses")
                assert resumed["epoch"] == plan["epoch"]
                assert sum(1 for s in resumed["steps"] if s["done"]) == 1
                report2 = execute_plan(
                    resumed, addresses2, ack=rebalance_ack(net2),
                    retry=FAST_RETRY,
                )
                assert report2["pending"] == 0 and not report2["failed"]

            # Re-planning now finds nothing left to move (idempotent).
            with NetClient(
                cluster.router.host, cluster.router.port, retry=FAST_RETRY
            ) as net3:
                done_plan = net3.call_json(m.REBALANCE_PLAN, {})
                assert all(s["done"] for s in done_plan["steps"]) or not done_plan["steps"]

            # The new node now holds verified replicas...
            moved = {(s["origin"], s["container_id"]) for s in steps}
            for origin, cid in moved:
                assert cid in server_c.replica_store.container_ids(origin)
        finally:
            net.close()
            server_c.shutdown()
            server_c.server_close()

        # ...and every vault passes a deep audit.
        for name in ("a", "b"):
            cluster.replicators[name].close(drain=False, timeout=0.5)
            cluster.servers[name].shutdown()
            cluster.servers[name].server_close()
            cluster.dead.add(name)
        for vault in (cluster.vaults["a"], cluster.vaults["b"], vault_c):
            assert vault.audit(deep=True).ok
        cluster.vaults["a"].close()
        cluster.vaults["b"].close()
        vault_c.close()
        cluster.dead.update(("a", "b"))

    def test_build_plan_is_deterministic(self):
        ring = PlacementRing(["a", "b", "c"], replication_factor=2)
        inventories = {
            "a": {"containers": [1, 2], "replicas": {}},
            "b": {"containers": [7], "replicas": {"a": {"container_ids": [1]}}},
            "c": {"containers": [], "replicas": {}},
        }
        p1 = build_plan(ring, inventories, epoch=4)
        p2 = build_plan(ring, inventories, epoch=4)
        assert p1 == p2
        covered = {(s["origin"], s["container_id"], s["dst"]) for s in p1["steps"]}
        # Container a:1 already has its copy on b iff the ring wants b.
        for origin, cid in (("a", 1), ("a", 2), ("b", 7)):
            want = set(ring.replicas_for_container(origin, cid)) - {origin}
            have = {"b"} if (origin, cid) == ("a", 1) else set()
            assert {(origin, cid, d) for d in want - have} <= covered


class TestRouterTelemetry:
    def test_router_metrics_move_and_validate(self, cluster, tmp_path):
        data = write_dataset(tmp_path / "ds", n_files=2)
        job = job_owned_by(cluster.membership, "b")
        client = RemoteBackupClient(
            cluster.router.host, cluster.router.port, retry=FAST_RETRY
        )
        try:
            run = client.backup(job, [data])
            client.restore(run.run_id, tmp_path / "out")
        finally:
            client.close()
        from repro.telemetry.export import build_snapshot
        from repro.telemetry.schema import validate_snapshot

        snapshot = build_snapshot(cluster.registry)
        names = {metric["name"] for metric in snapshot["metrics"]}
        for expected in (
            "router.requests",
            "router.proxied_frames",
            "router.proxy_latency",
            "router.sessions_routed",
            "router.ring_epoch",
        ):
            assert expected in names, f"{expected} never registered"
        # The schema validator accepts the router.* names (satellite
        # requirement: the catalogue and validator move together).
        summary = validate_snapshot(snapshot)
        assert summary["metrics"] == len(names)


class TestCli:
    def test_cluster_status_and_routed_backup_cli(self, cluster, tmp_path, capsys):
        from repro import cli

        data = write_dataset(tmp_path / "ds", n_files=2)
        router_addr = f"{cluster.router.host}:{cluster.router.port}"
        job = job_owned_by(cluster.membership, "a")
        rc = cli.main([
            "backup", "--connect", router_addr, "--job", job,
            "--connect-timeout", "1.0", str(data),
        ])
        assert rc == 0
        assert any(r.job == job for r in cluster.vaults["a"].runs())
        out_json = tmp_path / "cluster.json"
        rc = cli.main([
            "cluster-status", "--connect", router_addr, "--json", str(out_json),
        ])
        assert rc == 0
        doc = json.loads(out_json.read_text())
        assert {n["name"] for n in doc["nodes"]} == {"a", "b"}
        captured = capsys.readouterr()
        assert "epoch" in captured.out
        rc = cli.main(["rebalance", "--route", router_addr, "--dry-run"])
        assert rc == 0
        assert f"plan at epoch {cluster.membership.epoch}" in capsys.readouterr().out

    def test_exactly_one_target_enforced(self, tmp_path):
        from repro import cli

        vault = str(tmp_path / "v")
        for argv in (
            ["list", "--vault", vault, "--connect", "127.0.0.1:1"],
            ["list"],
            # Data commands take no --route: a cluster client uses --connect.
            ["backup", "--route", "127.0.0.1:1", "--job", "j", vault],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
