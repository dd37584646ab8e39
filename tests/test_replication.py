"""repro.replication: placement ring, async shipment, failover, rebuild.

The cluster tests run a real replica daemon on a loopback socket (node
"b") beside an in-process origin vault (node "a") whose
:class:`~repro.replication.replicator.Replicator` ships sealed
containers over real frames.  Covers the PR's acceptance path: an RF=2
cluster survives the loss of either node — restores stay byte-identical
via failover reads, and ``rebuild_node`` reconstructs the lost vault to
a state that passes a deep audit and a clean scrub.
"""

import errno
import json
import random
import threading
import time
from pathlib import Path

import pytest

from repro.durability.fsshim import LocalFs
from repro.durability.scrubber import Scrubber
from repro.net import messages as m
from repro.net.client import NetClient, RemoteError, RetryPolicy, WireSource
from repro.replication.rebuild import RebuildError, rebuild_node
from repro.replication.replicator import Replicator, peers_from_state
from repro.replication.ring import PlacementRing
from repro.replication.store import ReplicaStore, ReplicaStoreError
from repro.net.server import serve_vault
from repro.storage.container import ContainerWriter
from repro.storage.reader import ChunkReader
from repro.system.vault import DebarVault
from repro.telemetry.registry import MetricsRegistry

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05, timeout=2.0)


def write_dataset(root, n_files=4, seed=11):
    rng = random.Random(seed)
    data = root / "data"
    data.mkdir(exist_ok=True)
    for i in range(n_files):
        blob = rng.randbytes(2500)
        (data / f"f{i}.bin").write_bytes(blob + blob + bytes([i]) * 400)
    return data


def make_image(container_id=7, n_chunks=3, seed=3, capacity=1 << 20):
    """A serialized, materialized container image plus its chunks."""
    from repro.core.fingerprint import fingerprint as sha1

    rng = random.Random(seed)
    writer = ContainerWriter(capacity, materialize=True)
    chunks = {}
    for _ in range(n_chunks):
        data = rng.randbytes(600)
        fp = sha1(data)
        writer.add(fp, data=data)
        chunks[fp] = data
    return writer.seal(container_id).serialize(), chunks


def rot_payload(image, chunks):
    """Flip one byte inside a stored chunk payload of a container image."""
    payload = next(iter(chunks.values()))
    at = image.index(payload)
    bad = bytearray(image)
    bad[at] ^= 0xFF
    return bytes(bad)


def start_daemon(vault, node_name):
    server = serve_vault(vault, node_name=node_name)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture()
def cluster(tmp_path):
    """Origin vault "a" (in-process, replicating) + replica daemon "b"."""
    vault_b = DebarVault(tmp_path / "b")
    server_b = start_daemon(vault_b, "b")
    registry = MetricsRegistry()
    vault_a = DebarVault(tmp_path / "a", telemetry=registry)
    replicator = Replicator(
        vault_a,
        "a",
        {"b": (server_b.host, server_b.port)},
        replication_factor=2,
        retry=FAST_RETRY,
        registry=registry,
    )
    vault_a.replicator = replicator
    try:
        yield vault_a, replicator, server_b, vault_b, registry
    finally:
        replicator.close(drain=False, timeout=1.0)
        server_b.shutdown()
        server_b.server_close()
        vault_b.close()
        vault_a.close()


def restored_bytes(dest, name):
    return next(p for p in dest.rglob(name)).read_bytes()


class TestPlacementRing:
    def test_deterministic_and_distinct(self):
        a = PlacementRing(["n1", "n2", "n3", "n4"], replication_factor=3)
        b = PlacementRing(["n1", "n2", "n3", "n4"], replication_factor=3)
        for cid in range(50):
            replicas = a.replicas_for_container("n1", cid)
            assert replicas == b.replicas_for_container("n1", cid)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3
            assert replicas[0] == "n1"  # origin holds the primary copy
            assert a.peers_for_container("n1", cid) == replicas[1:]

    def test_index_prefix_partitions(self):
        ring = PlacementRing(["x", "y", "z"], replication_factor=2)
        for prefix in range(16):
            replicas = ring.replicas_for_prefix(prefix, 4)
            assert len(replicas) == 2 and len(set(replicas)) == 2
        with pytest.raises(ValueError):
            ring.replicas_for_prefix(16, 4)

    def test_rf_capped_at_cluster_size(self):
        ring = PlacementRing(["a", "b"], replication_factor=5)
        assert ring.replication_factor == 2

    def test_rejects_empty_and_bad_rf(self):
        with pytest.raises(ValueError):
            PlacementRing([])
        with pytest.raises(ValueError):
            PlacementRing(["a"], replication_factor=0)

    def test_balance_within_tolerance(self):
        nodes = [f"n{i}" for i in range(4)]
        ring = PlacementRing(nodes)
        share = ring.share([f"ctr:o:{i}" for i in range(2000)])
        for count in share.values():
            # 64 vnodes keeps a 4-node ring within ~2x of the fair share.
            assert 2000 / 4 / 2 < count < 2000 / 4 * 2

    def test_adding_node_moves_bounded_share(self):
        keys = [f"ctr:o:{i}" for i in range(1000)]
        before = PlacementRing(["a", "b", "c"])
        after = PlacementRing(["a", "b", "c", "d"])
        moved = sum(
            1 for k in keys if before.replicas(k, rf=1) != after.replicas(k, rf=1)
        )
        # Consistent hashing: ~1/4 of keys re-home, not a full reshuffle.
        assert moved < 1000 / 2


class TestReplicaStore:
    def test_put_verifies_and_is_idempotent(self, tmp_path):
        store = ReplicaStore(tmp_path / "replicas")
        image, chunks = make_image()
        assert store.put("a", 7, image) is True
        assert store.put("a", 7, image) is False  # duplicate: no-op ack
        assert store.container_ids("a") == [7]
        assert store.fetch_image("a", 7) == image
        for fp, data in chunks.items():
            assert store.read_chunk(fp) == data

    def test_put_rejects_corrupt_image(self, tmp_path):
        store = ReplicaStore(tmp_path / "replicas")
        image, chunks = make_image()
        with pytest.raises(Exception):
            store.put("a", 7, rot_payload(image, chunks))
        assert store.container_ids("a") == []

    def test_rejects_path_escaping_origins(self, tmp_path):
        store = ReplicaStore(tmp_path / "replicas")
        image, _ = make_image()
        for origin in ("", "..", "a/b", "a\\b", "a\0b"):
            with pytest.raises(ReplicaStoreError):
                store.put(origin, 7, image)

    def test_catalog_mirror_and_status(self, tmp_path):
        store = ReplicaStore(tmp_path / "replicas")
        image, _ = make_image(container_id=3)
        store.put("a", 3, image)
        store.put_catalog("a", {"version": 1, "runs": [{"run_id": 1}]})
        assert store.catalog("a")["runs"] == [{"run_id": 1}]
        status = store.status()
        assert status["a"]["containers"] == 1
        assert status["a"]["container_ids"] == [3]
        assert status["a"]["catalog_runs"] == 1


class TestAsyncReplication:
    def test_backup_ships_containers_and_catalog(self, cluster, tmp_path):
        vault_a, replicator, server_b, _, _ = cluster
        data = write_dataset(tmp_path)
        vault_a.backup("j", [str(data)])
        assert replicator.drain(timeout=10.0)
        held = server_b.replica_store
        assert held.container_ids("a") == vault_a.repository.container_ids()
        for cid in held.container_ids("a"):
            assert held.fetch_image("a", cid) == vault_a.fs.read_file(
                vault_a.repository.path_for(cid)
            )
        assert held.catalog("a")["runs"][0]["run_id"] == 1

    def test_push_is_idempotent_over_the_wire(self, cluster, tmp_path):
        _, _, server_b, _, _ = cluster
        image, _ = make_image(container_id=9)
        with NetClient(server_b.host, server_b.port, retry=FAST_RETRY) as net:
            envelope = {"origin": "elsewhere", "container_id": 9}
            first = m.decode_json(
                net.call(m.CONTAINER_PUSH, m.encode_container_image(envelope, image))
            )
            second = m.decode_json(
                net.call(m.CONTAINER_PUSH, m.encode_container_image(envelope, image))
            )
        assert first["stored"] is True
        assert second["stored"] is False

    def test_corrupt_push_refused(self, cluster):
        _, _, server_b, _, _ = cluster
        image, chunks = make_image(container_id=4)
        with NetClient(server_b.host, server_b.port, retry=FAST_RETRY) as net:
            with pytest.raises(RemoteError):
                net.call(
                    m.CONTAINER_PUSH,
                    m.encode_container_image(
                        {"origin": "elsewhere", "container_id": 4},
                        rot_payload(image, chunks),
                    ),
                )
        assert server_b.replica_store.container_ids("elsewhere") == []

    def test_stalled_queue_backup_still_completes(self, cluster, tmp_path):
        # The acceptance criterion's mechanism: a stalled queue must not
        # block the inline backup path, and repl.lag must expose the stall.
        vault_a, replicator, server_b, _, registry = cluster
        replicator.pause()
        data = write_dataset(tmp_path)
        run = vault_a.backup("j", [str(data)])
        assert run.run_id == 1  # backup committed with shipment stalled
        assert replicator.lag() > 0
        assert registry.value("repl.lag") > 0
        assert server_b.replica_store.container_ids("a") == []
        replicator.resume()
        assert replicator.drain(timeout=10.0)
        assert registry.value("repl.lag") == 0
        assert server_b.replica_store.container_ids("a") == (
            vault_a.repository.container_ids()
        )
        shipped = registry.total("repl.containers_shipped")
        assert shipped == len(vault_a.repository.container_ids())

    def test_state_survives_restart_without_repush(self, cluster, tmp_path):
        vault_a, replicator, server_b, _, registry = cluster
        data = write_dataset(tmp_path)
        vault_a.backup("j", [str(data)])
        assert replicator.drain(timeout=10.0)
        shipped_before = registry.total("repl.containers_shipped")
        replicator.close(drain=True, timeout=5.0)
        # A fresh replicator over the same vault re-reads replication.json:
        # everything is acked, so sync() enqueues nothing.
        fresh = Replicator(
            vault_a,
            "a",
            {"b": (server_b.host, server_b.port)},
            retry=FAST_RETRY,
            registry=registry,
        )
        try:
            assert fresh.sync() == 0
            assert fresh.drain(timeout=5.0)
        finally:
            fresh.close(drain=False)
        assert registry.total("repl.containers_shipped") == shipped_before
        peers = peers_from_state(vault_a.root)
        assert peers == {"b": (server_b.host, server_b.port)}

    def test_repl_status_rpc(self, cluster, tmp_path):
        vault_a, replicator, server_b, _, _ = cluster
        data = write_dataset(tmp_path)
        vault_a.backup("j", [str(data)])
        assert replicator.drain(timeout=10.0)
        with NetClient(server_b.host, server_b.port, retry=FAST_RETRY) as net:
            status = net.call_json(m.REPL_STATUS, {})
        assert status["node"] == "b"
        assert status["replicas"]["a"]["containers"] == len(
            vault_a.repository.container_ids()
        )
        assert replicator.status()["peers"]["b"]["acked"] == len(
            vault_a.repository.container_ids()
        )


class TestFailoverReads:
    def test_replica_daemon_serves_failover_chunk_reads(self, cluster, tmp_path):
        # Node B never stored these chunks itself; CHUNK_READ must fall
        # back to its replica store.
        vault_a, replicator, server_b, _, _ = cluster
        data = write_dataset(tmp_path)
        run = vault_a.backup("j", [str(data)])
        assert replicator.drain(timeout=10.0)
        reader = ChunkReader(
            [("b", WireSource.dial(server_b.host, server_b.port, "b"))]
        )
        try:
            for entry in run.files:
                for fp in entry.fingerprints:
                    assert reader.read_chunk(fp) == vault_a.chunk_store.read_chunk(fp)
        finally:
            reader.close()

    def test_failover_reader_falls_through_dead_primary(self, cluster, tmp_path):
        vault_a, replicator, server_b, _, registry = cluster
        data = write_dataset(tmp_path)
        run = vault_a.backup("j", [str(data)])
        assert replicator.drain(timeout=10.0)

        class DeadPrimary:
            def read_chunk(self, fp):
                raise OSError("node a is gone")

        reader = ChunkReader(
            [
                ("a", DeadPrimary()),
                ("b", WireSource.dial(server_b.host, server_b.port, "b")),
            ],
            registry=registry,
        )
        try:
            fp = run.files[0].fingerprints[0]
            assert reader.read_chunk(fp) == vault_a.chunk_store.read_chunk(fp)
            assert reader.last_source == "b"
            assert registry.value("repl.failovers", missed="a", served="b") == 1
        finally:
            reader.close()

    def test_restore_byte_identical_with_primary_missing_chunks(
        self, cluster, tmp_path
    ):
        # Degraded (not dead) primary: one of A's containers is lost on
        # disk; a failover restore through B must still be byte-identical.
        vault_a, replicator, server_b, _, _ = cluster
        data = write_dataset(tmp_path)
        run = vault_a.backup("j", [str(data)])
        assert replicator.drain(timeout=10.0)
        victim = vault_a.repository.container_ids()[0]
        vault_a.fs.unlink(vault_a.repository.path_for(victim))
        vault_a.repository.invalidate(victim)
        reader = vault_a.reader(
            [fp for e in run.files for fp in e.fingerprints],
            fallbacks=[("b", WireSource.dial(server_b.host, server_b.port, "b"))],
        )
        dest = tmp_path / "restore"
        try:
            paths = vault_a.engine.restore_run(run.files, reader, dest, "/")
        finally:
            reader.close()
        assert len(paths) == 4
        for i in range(4):
            assert restored_bytes(dest, f"f{i}.bin") == (
                data / f"f{i}.bin"
            ).read_bytes()

    def test_planned_restore_across_disjoint_replicas(self, tmp_path):
        # Regression: three nodes, RF=2, origin "a" dead.  Every container
        # went to exactly one of b/c, so each replica holds only part of
        # the data.  A *planned* restore used to fail with ``KeyError: …
        # unavailable on all 3 sources``: the first look-ahead window that
        # spanned containers placed on different replicas made b refuse
        # the whole batch (a daemon fails a batch on any miss), the
        # single-fingerprint retry was never reached, and c did not hold
        # the chunk.  A miss also dropped the plan, so surviving reads paid
        # one RPC per chunk.  Now a source serves what it can and a miss
        # keeps the plan: byte-identical, in fewer RPCs than chunks.
        vault_b, vault_c = DebarVault(tmp_path / "b"), DebarVault(tmp_path / "c")
        server_b, server_c = start_daemon(vault_b, "b"), start_daemon(vault_c, "c")
        vault_a = DebarVault(tmp_path / "a", container_bytes=128 * 1024)
        replicator = Replicator(
            vault_a, "a",
            {"b": (server_b.host, server_b.port), "c": (server_c.host, server_c.port)},
            replication_factor=2, retry=FAST_RETRY,
        )
        vault_a.replicator = replicator
        registry = MetricsRegistry()
        try:
            data = tmp_path / "data"
            data.mkdir()
            rng = random.Random(5)
            for i in range(6):
                (data / f"f{i}.bin").write_bytes(rng.randbytes(300_000))
            run = vault_a.backup("j", [str(data)])
            assert replicator.drain(timeout=20.0)
            held = {
                name: set(server.replica_store.container_ids("a"))
                for name, server in (("b", server_b), ("c", server_c))
            }
            assert held["b"] and held["c"] and not held["b"] & held["c"]
            assert held["b"] | held["c"] == set(vault_a.repository.container_ids())

            class DeadPrimary:
                def read_chunk(self, fp):
                    raise OSError("node a is gone")

            plan = [fp for e in run.files for fp in e.fingerprints]
            reader = ChunkReader(
                [("a", DeadPrimary())] + [
                    (name, WireSource(
                        NetClient(s.host, s.port, retry=FAST_RETRY, registry=registry),
                        owns_net=True,
                    ))
                    for name, s in (("b", server_b), ("c", server_c))
                ],
                plan,
                registry=registry,
            )
            dest = tmp_path / "restore"
            try:
                vault_a.engine.restore_run(run.files, reader, dest, "/")
            finally:
                reader.close()
            for i in range(6):
                assert restored_bytes(dest, f"f{i}.bin") == (
                    data / f"f{i}.bin"
                ).read_bytes()
            rpcs = registry.value("net.requests", type="chunk_read")
            assert 0 < rpcs < len(plan), (
                f"{rpcs:.0f} CHUNK_READs for {len(plan)} chunks: "
                "the plan bought nothing"
            )
            assert registry.value("repl.failovers", missed="a", served="b") > 0
            assert registry.value("repl.failovers", missed="a", served="c") > 0
        finally:
            replicator.close(drain=False, timeout=1.0)
            for server in (server_b, server_c):
                server.shutdown()
                server.server_close()
            for vault in (vault_a, vault_b, vault_c):
                vault.close()

    def test_all_sources_failing_raises_keyerror(self):
        class Dead:
            def read_chunk(self, fp):
                raise KeyError("nope")

        reader = ChunkReader([("x", Dead()), ("y", Dead())])
        with pytest.raises(KeyError, match="all 2 sources"):
            reader.read_chunk(b"\x00" * 20)


class TestScrubHealsFromReplicas:
    def test_repair_report_names_the_healing_peer(self, cluster, tmp_path):
        vault_a, replicator, server_b, _, _ = cluster
        data = write_dataset(tmp_path)
        vault_a.backup("j", [str(data)])
        assert replicator.drain(timeout=10.0)
        # Rot one payload byte in one of A's containers; empty the chunk
        # log's in-memory records so the peer is the only intact source.
        vault_a.tpds.chunk_log._records = []
        cid = vault_a.repository.container_ids()[0]
        container = vault_a.repository.fetch(cid)
        payload = container.get(container.records[0].fingerprint)
        path = vault_a.repository.path_for(cid)
        blob = bytearray(vault_a.fs.read_file(path))
        at = bytes(blob).index(payload)
        blob[at] ^= 0xFF
        vault_a.fs.write_file(path, bytes(blob))
        vault_a.repository.invalidate(cid)
        peer = WireSource.dial(server_b.host, server_b.port, "b")
        try:
            report = Scrubber(vault_a, peers=[("b", peer)]).run(repair=True)
        finally:
            peer.close()
        assert report.corrupt_found >= 1
        assert report.unrepaired == 0
        healed = [f for f in report.findings if f.repaired]
        assert healed and all("from b" in f.action for f in healed)


class TestNodeRebuild:
    def _populate_and_lose_a(self, cluster, tmp_path, runs=2):
        vault_a, replicator, server_b, _, _ = cluster
        data = write_dataset(tmp_path)
        originals = {}
        for r in range(runs):
            # Mutate one file between runs so the chain has real deltas.
            (data / "f0.bin").write_bytes(
                random.Random(100 + r).randbytes(3000)
            )
            vault_a.backup("j", [str(data)])
            originals[r + 1] = {
                p.name: p.read_bytes() for p in data.iterdir()
            }
        assert replicator.drain(timeout=10.0)
        replicator.close(drain=True, timeout=5.0)
        vault_a.replicator = None
        return vault_a, server_b, originals

    def test_rebuild_passes_audit_and_scrub(self, cluster, tmp_path):
        vault_a, server_b, originals = self._populate_and_lose_a(
            cluster, tmp_path
        )
        expected_cids = vault_a.repository.container_ids()
        report = rebuild_node(
            "a",
            tmp_path / "a-rebuilt",
            {"b": (server_b.host, server_b.port)},
            retry=FAST_RETRY,
        )
        assert report.audit_ok is True
        assert report.containers_missing == []
        assert report.containers_recovered == len(expected_cids)
        assert report.chunks_verified > 0
        assert sorted(report.sources) == expected_cids
        assert set(report.sources.values()) == {"b"}
        with DebarVault(tmp_path / "a-rebuilt") as rebuilt:
            # Byte-identical container images, fingerprint-verified.
            for cid in expected_cids:
                assert rebuilt.fs.read_file(
                    rebuilt.repository.path_for(cid)
                ) == vault_a.fs.read_file(vault_a.repository.path_for(cid))
            # Every prior run restores byte-identically.
            for run_id, files in originals.items():
                dest = tmp_path / f"rebuilt-restore-{run_id}"
                rebuilt.restore(run_id, dest)
                for name, payload in files.items():
                    assert restored_bytes(dest, name) == payload
            # Full scrub: zero unrepaired records.
            scrub = Scrubber(rebuilt).run(repair=True)
            assert scrub.unrepaired == 0
            assert scrub.clean

    def test_rebuild_refuses_existing_vault(self, cluster, tmp_path):
        vault_a, server_b, _ = self._populate_and_lose_a(cluster, tmp_path, runs=1)
        with pytest.raises(RebuildError):
            rebuild_node(
                "a", vault_a.root, {"b": (server_b.host, server_b.port)}
            )

    def test_malformed_mirror_is_refused_before_anything_is_written(
        self, cluster, tmp_path
    ):
        # The mirror is outside input.  Without its geometry the parent
        # commit wrote a vault that then died on open with KeyError.
        _, server_b, _ = self._populate_and_lose_a(cluster, tmp_path, runs=1)
        mirror = server_b.replica_store.catalog("a")
        del mirror["index_n_bits"]
        server_b.replica_store.put_catalog("a", mirror)
        with pytest.raises(RebuildError, match="index_n_bits"):
            rebuild_node(
                "a",
                tmp_path / "a-rebuilt",
                {"b": (server_b.host, server_b.port)},
                retry=FAST_RETRY,
            )
        assert not (tmp_path / "a-rebuilt").exists()

    def test_rebuild_interrupted_at_the_catalog_step_can_be_rerun(
        self, cluster, tmp_path, monkeypatch
    ):
        # The catalog lands last and atomically: a crash while writing it
        # leaves no vault behind (a bare write_text left a torn catalog
        # that neither opened nor, "already holds a vault", rebuilt).
        _, server_b, originals = self._populate_and_lose_a(cluster, tmp_path, runs=1)
        write_file = LocalFs.write_file

        def torn_catalog_write(fs, path, data):
            if "catalog" in Path(path).name:
                write_file(fs, path, data[: len(data) // 2])
                raise OSError(errno.EIO, "injected crash", str(path))
            write_file(fs, path, data)

        peers = {"b": (server_b.host, server_b.port)}
        monkeypatch.setattr(LocalFs, "write_file", torn_catalog_write)
        with pytest.raises(OSError, match="injected crash"):
            rebuild_node("a", tmp_path / "a-rebuilt", peers, retry=FAST_RETRY)
        monkeypatch.undo()
        report = rebuild_node("a", tmp_path / "a-rebuilt", peers, retry=FAST_RETRY)
        assert report.audit_ok is True and report.catalog_runs == 1
        with DebarVault(tmp_path / "a-rebuilt") as rebuilt:
            dest = tmp_path / "rerun-restore"
            rebuilt.restore(1, dest)
            for name, payload in originals[1].items():
                assert restored_bytes(dest, name) == payload

    def test_rebuild_without_catalog_holder_fails(self, cluster, tmp_path):
        _, _, server_b, _, _ = cluster
        with pytest.raises(RebuildError):
            rebuild_node(
                "never-existed",
                tmp_path / "nowhere",
                {"b": (server_b.host, server_b.port)},
                retry=FAST_RETRY,
            )


class TestReplStatusCli:
    def test_offline_repl_status(self, cluster, tmp_path, capsys):
        from repro.cli import main

        vault_a, replicator, _, _, _ = cluster
        data = write_dataset(tmp_path)
        vault_a.backup("j", [str(data)])
        assert replicator.drain(timeout=10.0)
        out_path = tmp_path / "status.json"
        code = main([
            "repl-status", "--vault", str(vault_a.root), "--json", str(out_path)
        ])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["node"] == "a"
        assert doc["outbound"]["acked"]["b"] == vault_a.repository.container_ids()
