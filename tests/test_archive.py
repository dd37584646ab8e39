"""repro.archive: delta objects, chains, merge/compaction, retention,
the async shipper, and point-in-time restore (DESIGN.md §15).

The cluster tests run a real archive daemon ("vaultkeep") on a loopback
socket beside an in-process origin vault ("a") whose
:class:`~repro.archive.shipper.ArchiveShipper` ships per-run deltas over
real frames.  Covers the PR's acceptance path: after the primary vault is
destroyed outright, ``restore --as-of`` reproduces every retained run
byte-identically from the archive — directly, over ``--connect``, and
through the front-door router — and crash injection at each archive
checkpoint (mid-merge, mid-push) never loses a restorable point.
"""

import json
import random
import shutil
import threading
import time

import pytest

from repro.archive.delta import (
    Delta,
    cut_delta,
    fold,
    merge_deltas,
    pack_delta,
    recipe_fps,
    unpack_delta,
)
from repro.archive.restore import restore_local, restore_remote
from repro.archive.retention import RetentionPolicy
from repro.archive.shipper import ArchiveShipper, peers_from_state
from repro.archive.store import ArchiveError, ArchiveStore
from repro.audit.faults import (
    ARCHIVE_MERGE_PRECLEANUP,
    ARCHIVE_MERGE_PREPUBLISH,
    ARCHIVE_SHIP_PREACK,
    FaultPlan,
    InjectedCrash,
    inject,
)
from repro.core.fingerprint import fingerprint as sha1
from repro.director.director import Director
from repro.durability.errors import CorruptionError, TornWriteError
from repro.net import messages as m
from repro.net.client import NetClient, RemoteBackupClient, RetryPolicy
from repro.net.server import serve_vault
from repro.system.vault import DebarVault
from repro.telemetry.registry import MetricsRegistry

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05, timeout=5.0)


# -- helpers ---------------------------------------------------------------------
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


def mutate_dataset(root, r):
    """Advance the dataset to run ``r``'s content; returns name -> bytes."""
    rng = random.Random(100 + r)
    data = root / "data"
    data.mkdir(exist_ok=True)
    (data / "stable.bin").write_bytes(b"unchanging payload " * 200)
    (data / "churn.bin").write_bytes(rng.randbytes(3000))
    (data / f"new{r}.bin").write_bytes(rng.randbytes(1200) * 2)
    return {p.name: p.read_bytes() for p in data.iterdir()}


def restored_map(dest):
    return {p.name: p.read_bytes() for p in dest.rglob("*.bin")}


def make_entry(path, payloads):
    """A catalog-shaped recipe entry + its fp->payload chunk map."""
    fps = [sha1(d) for d in payloads]
    entry = {
        "path": path,
        "size": sum(len(d) for d in payloads),
        "mode": 0o644,
        "mtime": 1.0,
        "fingerprints": [fp.hex() for fp in fps],
    }
    return entry, dict(zip(fps, payloads))


def chain_deltas(n, job="homes", origin="a", day_seconds=86400.0):
    """A synthetic n-run chain: a shared file plus one churning file.

    Returns ``(deltas, recipes)`` where ``recipes[i]`` is the full recipe
    at run ``i+1``.  Timestamps are one day apart (retention tests).
    """
    shared, shared_chunks = make_entry("/data/shared", [b"shared-payload" * 40])
    deltas, recipes = [], []
    recipe = {}
    for i in range(1, n + 1):
        mut, mut_chunks = make_entry("/data/mut", [b"mut-%04d-" % i * 50])
        if i == 1:
            files = {"/data/shared": shared, "/data/mut": mut}
            chunks = {**shared_chunks, **mut_chunks}
        else:
            files = {"/data/mut": mut}
            chunks = dict(mut_chunks)
        deltas.append(
            Delta(
                origin=origin, job=job, run_id=i, base_run_id=i - 1,
                timestamp=i * day_seconds, full=(i == 1),
                files=files, chunks=chunks,
            )
        )
        recipe = fold(recipe, deltas[-1])
        recipes.append(dict(recipe))
    return deltas, recipes


def ingest_chain(store, deltas, origin="a", job="homes"):
    for delta in deltas:
        stored, _ = store.ingest(origin, job, pack_delta(delta))
        assert stored


# -- the delta format ------------------------------------------------------------
class TestDeltaFormat:
    def test_pack_unpack_roundtrip(self):
        (delta,), _ = chain_deltas(1)
        blob = pack_delta(delta)
        back = unpack_delta(blob)
        assert back.origin == "a" and back.job == "homes"
        assert (back.run_id, back.base_run_id) == (1, 0)
        assert back.full and back.files == delta.files
        assert back.chunks == delta.chunks
        assert back.timestamp == delta.timestamp

    def test_corrupt_payload_rejected(self):
        (delta,), _ = chain_deltas(1)
        blob = bytearray(pack_delta(delta))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(CorruptionError):
            unpack_delta(bytes(blob))

    def test_torn_tail_rejected(self):
        (delta,), _ = chain_deltas(1)
        blob = pack_delta(delta)
        with pytest.raises((TornWriteError, CorruptionError)):
            unpack_delta(blob[:-7])

    def test_wrong_kind_rejected(self):
        from repro.durability.framing import Superblock

        blob = Superblock(b"XXXX", 1, b"{}").pack()
        with pytest.raises(CorruptionError):
            unpack_delta(blob)


class TestCutAndFold(object):
    def test_cut_against_previous_run(self, tmp_path):
        vault = DebarVault(tmp_path / "v")
        try:
            mutate_dataset(tmp_path, 1)
            run1 = vault.backup("homes", [str(tmp_path / "data")])
            mutate_dataset(tmp_path, 2)
            run2 = vault.backup("homes", [str(tmp_path / "data")])
            d1 = cut_delta(vault, run1, base_run_id=0, origin="a")
            d2 = cut_delta(vault, run2, base_run_id=1, origin="a")
        finally:
            vault.close()
        assert d1.full and not d2.full
        recipe1 = fold({}, d1)
        recipe2 = fold(recipe1, d2)
        assert set(recipe1) == {e.metadata.path for e in run1.files}
        assert set(recipe2) == {e.metadata.path for e in run2.files}
        # The incremental delta carries exactly the chunks new to the chain.
        assert set(d2.chunks) == recipe_fps(recipe2) - recipe_fps(recipe1)
        # Every fingerprint either delta's recipe references is covered.
        assert recipe_fps(recipe2) <= set(d1.chunks) | set(d2.chunks)

    def test_cut_falls_back_to_full_when_base_forgotten(self, tmp_path):
        vault = DebarVault(tmp_path / "v")
        try:
            mutate_dataset(tmp_path, 1)
            vault.backup("homes", [str(tmp_path / "data")])
            mutate_dataset(tmp_path, 2)
            run2 = vault.backup("homes", [str(tmp_path / "data")])
            vault.forget(1, job="homes")
            d2 = cut_delta(vault, run2, base_run_id=1, origin="a")
        finally:
            vault.close()
        assert d2.full  # base recipe gone: a full delta is the safe superset
        assert recipe_fps(fold({}, d2)) == set(d2.chunks)


class TestMergeAlgebra:
    def test_merge_composes_and_prunes(self):
        (d1, d2, d3), recipes = chain_deltas(3)
        merged = merge_deltas(d2, d3, base_recipe=recipes[0])
        assert (merged.base_run_id, merged.run_id) == (1, 3)
        assert fold(recipes[0], merged) == recipes[2]
        # Compaction: run 2's churned chunks are merged away; what's kept
        # is exactly recipe(3) \ recipe(1).
        assert set(merged.chunks) == recipe_fps(recipes[2]) - recipe_fps(recipes[0])

    def test_merge_full_propagates(self):
        (d1, d2, _), recipes = chain_deltas(3)
        merged = merge_deltas(d1, d2)
        assert merged.full and merged.base_run_id == 0
        assert fold({}, merged) == recipes[1]
        assert set(merged.chunks) == recipe_fps(recipes[1])

    def test_merge_composes_removals(self):
        (d1,), _ = chain_deltas(1)
        gone = Delta(
            origin="a", job="homes", run_id=2, base_run_id=1,
            timestamp=2.0, full=False, files={"/data/mut": None},
        )
        merged = merge_deltas(d1, gone)
        assert "/data/mut" not in fold({}, merged)
        assert "/data/shared" in fold({}, merged)

    def test_merge_rejects_non_adjacent_and_cross_job(self):
        (d1, d2, d3), _ = chain_deltas(3)
        with pytest.raises(ValueError):
            merge_deltas(d1, d3)
        other = Delta(
            origin="a", job="other", run_id=2, base_run_id=1,
            timestamp=2.0, full=False, files={},
        )
        with pytest.raises(ValueError):
            merge_deltas(d1, other)


# -- the archive store -----------------------------------------------------------
class TestArchiveStore:
    def test_fifo_ingest_and_idempotency(self, tmp_path):
        store = ArchiveStore(tmp_path / "archive")
        deltas, _ = chain_deltas(3)
        assert store.ingest("a", "homes", pack_delta(deltas[0])) == (True, 1)
        # A re-push of an applied run is a no-op ack, not an error.
        assert store.ingest("a", "homes", pack_delta(deltas[0])) == (False, 1)
        with pytest.raises(ArchiveError):  # ahead of tip, base != tip
            store.ingest("a", "homes", pack_delta(deltas[2]))
        assert store.ingest("a", "homes", pack_delta(deltas[1])) == (True, 2)
        assert store.ingest("a", "homes", pack_delta(deltas[2])) == (True, 3)
        assert store.points("a", "homes") == [1, 2, 3]

    def test_out_of_order_refused(self, tmp_path):
        store = ArchiveStore(tmp_path / "archive")
        deltas, _ = chain_deltas(3)
        ingest_chain(store, deltas[:1])
        with pytest.raises(ArchiveError):
            store.ingest("a", "homes", pack_delta(deltas[2]))
        assert store.points("a", "homes") == [1]

    def test_unsafe_names_refused(self, tmp_path):
        store = ArchiveStore(tmp_path / "archive")
        (d1,), _ = chain_deltas(1)
        with pytest.raises(ArchiveError):
            store.ingest("../evil", "homes", pack_delta(d1))

    def test_restore_points_along_chain(self, tmp_path):
        store = ArchiveStore(tmp_path / "archive")
        deltas, recipes = chain_deltas(3)
        ingest_chain(store, deltas)
        assert store.points("a", "homes") == [1, 2, 3]
        for as_of in (1, 2, 3):
            recipe, chunks = store.restore_point("a", "homes", as_of)
            assert recipe == recipes[as_of - 1]
            assert recipe_fps(recipe) <= set(chunks)
        with pytest.raises(ArchiveError):
            store.restore_point("a", "homes", 9)

    def test_compaction_drops_points_keeps_survivors(self, tmp_path):
        store = ArchiveStore(tmp_path / "archive")
        deltas, recipes = chain_deltas(4)
        ingest_chain(store, deltas)
        before = sum(s.bytes for s in store.chain("a", "homes"))
        expired = store.compact("a", "homes", keep={1, 4})
        assert expired == [2, 3]
        assert store.points("a", "homes") == [1, 4]
        # Compaction reclaims bytes (runs 2 and 3's churn merged away)...
        assert sum(s.bytes for s in store.chain("a", "homes")) < before
        # ...and every survivor still restores its exact recipe.
        for as_of in (1, 4):
            recipe, chunks = store.restore_point("a", "homes", as_of)
            assert recipe == recipes[as_of - 1]
            assert recipe_fps(recipe) <= set(chunks)

    @pytest.mark.parametrize(
        "point", [ARCHIVE_MERGE_PREPUBLISH, ARCHIVE_MERGE_PRECLEANUP]
    )
    def test_crash_mid_merge_resumes_clean(self, tmp_path, point):
        store = ArchiveStore(tmp_path / "archive")
        deltas, recipes = chain_deltas(3)
        ingest_chain(store, deltas)
        with inject(store, point):
            with pytest.raises(InjectedCrash):
                store.compact("a", "homes", keep={3})
        # "Restart": a fresh open resolves the cursor (forward past the
        # publish point, back before it) — the chain is clean either way.
        reopened = ArchiveStore(tmp_path / "archive")
        job_dir = tmp_path / "archive" / "a" / "homes"
        assert not (job_dir / "merge.json").exists()
        assert not list(job_dir.glob("*.tmp"))
        points = reopened.points("a", "homes")
        assert 3 in points  # the tip is never lost
        for as_of in points:
            recipe, chunks = reopened.restore_point("a", "homes", as_of)
            assert recipe == recipes[as_of - 1]
            assert recipe_fps(recipe) <= set(chunks)
        # The interrupted compaction completes on re-run.
        reopened.compact("a", "homes", keep={3})
        assert reopened.points("a", "homes") == [3]
        recipe, chunks = reopened.restore_point("a", "homes", 3)
        assert recipe == recipes[2]

    def test_restore_local_resolution(self, tmp_path):
        store = ArchiveStore(tmp_path / "archive")
        deltas, recipes = chain_deltas(2)
        ingest_chain(store, deltas)
        dest = tmp_path / "out"
        paths = restore_local(store, 2, dest)
        assert len(paths) == len(recipes[1])
        assert (dest / "data" / "shared").read_bytes() == b"shared-payload" * 40
        with pytest.raises(KeyError):
            restore_local(store, 9, tmp_path / "none")

    def test_restore_local_ambiguity_requires_job(self, tmp_path):
        store = ArchiveStore(tmp_path / "archive")
        deltas, _ = chain_deltas(1)
        other, _ = chain_deltas(1, job="mail")
        ingest_chain(store, deltas)
        ingest_chain(store, other, job="mail")
        with pytest.raises(KeyError, match="qualify"):
            restore_local(store, 1, tmp_path / "out")
        restore_local(store, 1, tmp_path / "out", job="mail")


class TestRetentionPolicy:
    def test_parse_spec_roundtrip(self):
        policy = RetentionPolicy.parse("keep-last=3,daily=7,weekly=4")
        assert policy == RetentionPolicy(keep_last=3, keep_daily=7, keep_weekly=4)
        assert RetentionPolicy.parse(policy.spec()) == policy
        with pytest.raises(ValueError):
            RetentionPolicy.parse("keep=everything")
        with pytest.raises(ValueError):
            RetentionPolicy(keep_last=0)

    def test_keep_last_and_tip(self):
        policy = RetentionPolicy(keep_last=2)
        points = [(i, i * 86400.0) for i in range(1, 6)]
        assert policy.keep(points) == {4, 5}
        assert policy.expired(points) == [1, 2, 3]

    def test_daily_keeps_newest_per_day(self):
        policy = RetentionPolicy(keep_last=1, keep_daily=2)
        day = 86400.0
        points = [(1, 1 * day), (2, 1.5 * day), (3, 2 * day), (4, 2.5 * day)]
        # Newest of each of the last 2 days: runs 2 and 4; plus the tip (4).
        assert policy.keep(points) == {2, 4}


# -- the cluster path ------------------------------------------------------------
@pytest.fixture()
def archive_cluster(tmp_path):
    """Origin vault "a" (in-process, shipping) + archive daemon "vaultkeep"."""
    vault_k = DebarVault(tmp_path / "keep")
    server_k = start_daemon(vault_k, "vaultkeep")
    registry = MetricsRegistry()
    vault_a = DebarVault(tmp_path / "a", telemetry=registry)
    shipper = ArchiveShipper(
        vault_a,
        "a",
        {"vaultkeep": (server_k.host, server_k.port)},
        retry=FAST_RETRY,
        registry=registry,
    )
    vault_a.archive_shipper = shipper
    try:
        yield vault_a, shipper, server_k, vault_k, registry
    finally:
        shipper.close(drain=False, timeout=1.0)
        server_k.shutdown()
        server_k.server_close()
        vault_k.close()
        try:
            vault_a.close()
        except Exception:
            pass  # DR tests destroy this vault's directory on purpose


class TestArchiveCluster:
    def backup_runs(self, vault, tmp_path, n=5, job="homes"):
        originals = {}
        for r in range(1, n + 1):
            originals[r] = mutate_dataset(tmp_path, r)
            vault.backup(job, [str(tmp_path / "data")])
        return originals

    def test_dr_restore_after_primary_destroyed(self, archive_cluster, tmp_path):
        vault_a, shipper, server_k, vault_k, registry = archive_cluster
        originals = self.backup_runs(vault_a, tmp_path, n=5)
        assert shipper.drain(timeout=10.0)
        assert wait_until(
            lambda: server_k.archive_store.tip("a", "homes") == 5
        )
        assert server_k.archive_store.points("a", "homes") == [1, 2, 3, 4, 5]
        # Destroy the primary vault entirely: catalog, containers, index.
        vault_a.close()
        shutil.rmtree(vault_a.root)
        for as_of in (2, 5):
            dest = tmp_path / f"dr{as_of}"
            with NetClient(
                server_k.host, server_k.port, client_name="dr", retry=FAST_RETRY
            ) as net:
                restore_remote(net, as_of, dest)
            assert restored_map(dest) == originals[as_of]

    def test_shipping_state_survives_restart(self, archive_cluster, tmp_path):
        vault_a, shipper, server_k, vault_k, registry = archive_cluster
        self.backup_runs(vault_a, tmp_path, n=3)
        assert shipper.drain(timeout=10.0)
        shipper.close(drain=False)
        assert peers_from_state(vault_a.root) == {
            "vaultkeep": (server_k.host, server_k.port)
        }
        # A restarted shipper owes nothing: the ack state persisted.
        fresh = ArchiveShipper(
            vault_a, "a",
            {"vaultkeep": (server_k.host, server_k.port)},
            retry=FAST_RETRY,
        )
        try:
            assert fresh.sync() == 0
        finally:
            fresh.close(drain=False)
        # A lost state file merely re-pushes; the archive no-ops each one.
        (vault_a.root / "archive.json").unlink()
        repush = ArchiveShipper(
            vault_a, "a",
            {"vaultkeep": (server_k.host, server_k.port)},
            retry=FAST_RETRY,
        )
        try:
            assert repush.sync() == 3
            assert repush.drain(timeout=10.0)
        finally:
            repush.close(drain=False)
        assert server_k.archive_store.points("a", "homes") == [1, 2, 3]
        status = server_k.archive_store.status()
        assert len(status["origins"]["a"]["homes"]["segments"]) == 3

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_crash_mid_push_resumes_without_double_apply(
        self, archive_cluster, tmp_path
    ):
        vault_a, shipper, server_k, vault_k, registry = archive_cluster
        # Crash the worker after the push lands but before the ack is
        # recorded — the canonical lost-ack window.
        shipper.fault_hook = FaultPlan(ARCHIVE_SHIP_PREACK)
        originals = self.backup_runs(vault_a, tmp_path, n=1)
        assert wait_until(
            lambda: server_k.archive_store.tip("a", "homes") == 1
        )
        channel = shipper._channels["vaultkeep"]
        assert wait_until(lambda: not channel.thread.is_alive())
        assert shipper._acked["vaultkeep"].get("homes", 0) == 0  # ack lost
        shipper.close(drain=False)
        # Restart: the re-push is answered stored=False (idempotent no-op)
        # and the ack cursor advances past it.
        fresh = ArchiveShipper(
            vault_a, "a",
            {"vaultkeep": (server_k.host, server_k.port)},
            retry=FAST_RETRY,
        )
        vault_a.archive_shipper = fresh
        try:
            assert fresh.sync() == 1
            assert fresh.drain(timeout=10.0)
            assert fresh._acked["vaultkeep"]["homes"] == 1
        finally:
            fresh.close(drain=False)
        assert server_k.archive_store.points("a", "homes") == [1]
        dest = tmp_path / "out"
        with NetClient(
            server_k.host, server_k.port, client_name="dr", retry=FAST_RETRY
        ) as net:
            restore_remote(net, 1, dest)
        assert restored_map(dest) == originals[1]

    def test_forget_then_backup_still_ships(self, archive_cluster, tmp_path):
        # Run ids used to be len(runs) + 1, so forget + backup re-minted
        # the tip's id and the archive's ``run_id <= tip`` idempotency
        # rule silently acked the new run without storing it.
        vault_a, shipper, server_k, vault_k, registry = archive_cluster
        originals = self.backup_runs(vault_a, tmp_path, n=3)
        assert shipper.drain(timeout=10.0)
        vault_a.forget(1)
        originals[4] = mutate_dataset(tmp_path, 4)
        run = vault_a.backup("homes", [str(tmp_path / "data")])
        assert run.run_id == 4
        assert shipper.drain(timeout=10.0)
        assert server_k.archive_store.tip("a", "homes") == 4
        assert server_k.archive_store.points("a", "homes") == [1, 2, 3, 4]
        dest = tmp_path / "as-of-4"
        with NetClient(
            server_k.host, server_k.port, client_name="dr", retry=FAST_RETRY
        ) as net:
            restore_remote(net, 4, dest)
        assert restored_map(dest) == originals[4]

    def test_retention_compacts_at_the_archive(self, archive_cluster, tmp_path):
        vault_a, shipper, server_k, vault_k, registry = archive_cluster
        server_k.archive_director = Director(
            retention=RetentionPolicy(keep_last=2)
        )
        originals = self.backup_runs(vault_a, tmp_path, n=4)
        assert shipper.drain(timeout=10.0)
        assert wait_until(
            lambda: server_k.archive_store.points("a", "homes") == [3, 4]
        )
        # Every surviving --as-of point is byte-identical after expiry.
        for as_of in (3, 4):
            dest = tmp_path / f"kept{as_of}"
            with NetClient(
                server_k.host, server_k.port, client_name="dr", retry=FAST_RETRY
            ) as net:
                restore_remote(net, as_of, dest)
            assert restored_map(dest) == originals[as_of]

    def test_archive_merge_and_status_over_wire(self, archive_cluster, tmp_path):
        vault_a, shipper, server_k, vault_k, registry = archive_cluster
        self.backup_runs(vault_a, tmp_path, n=3)
        assert shipper.drain(timeout=10.0)
        client = RemoteBackupClient(
            server_k.host, server_k.port, retry=FAST_RETRY
        )
        try:
            status = client.archive_status()
            assert status["node"] == "vaultkeep"
            assert status["origins"]["a"]["homes"]["points"] == [1, 2, 3]
            report = client.archive_merge(retention="keep-last=1")
            assert report["expired"] == {"a": {"homes": [1, 2]}}
            assert client.archive_status()["origins"]["a"]["homes"]["points"] == [3]
        finally:
            client.close()

    def test_runs_carry_chunks_over_wire(self, archive_cluster, tmp_path):
        vault_a, shipper, server_k, vault_k, registry = archive_cluster
        mutate_dataset(tmp_path, 1)
        run = vault_a.backup("homes", [str(tmp_path / "data")])
        assert shipper.drain(timeout=10.0)
        # The origin daemon reports per-run chunk counts on the wire; so
        # does any serve daemon — ask the archive about its own (empty)
        # catalog first, then a daemon over the origin vault.
        server_a = start_daemon(vault_a, "a2")
        try:
            client = RemoteBackupClient(
                server_a.host, server_a.port, retry=FAST_RETRY
            )
            try:
                runs = client.runs()
                assert runs[0].chunks == sum(
                    len(e.fingerprints) for e in run.files
                )
                assert runs[0].chunks > 0
            finally:
                client.close()
        finally:
            server_a.shutdown()
            server_a.server_close()

    def test_restore_as_of_through_front_door(self, archive_cluster, tmp_path):
        from repro.frontdoor.client import RouterClient
        from repro.frontdoor.membership import ClusterMembership
        from repro.frontdoor.router import FrontDoorRouter

        vault_a, shipper, server_k, vault_k, registry = archive_cluster
        originals = self.backup_runs(vault_a, tmp_path, n=3)
        assert shipper.drain(timeout=10.0)
        # The cluster after the disaster: only the archive node is left.
        vault_a.close()
        shutil.rmtree(vault_a.root)
        membership = ClusterMembership(tmp_path / "state", replication_factor=1)
        membership.join("vaultkeep", f"{server_k.host}:{server_k.port}")
        router = FrontDoorRouter(
            membership, state_dir=tmp_path / "state",
            probe_interval=3600.0, probe_timeout=0.5,
        )
        thread = threading.Thread(target=router.serve_forever, daemon=True)
        thread.start()
        try:
            # Redirect mode: the smart client sweeps the live archives.
            with RouterClient(
                router.server_address[0], router.server_address[1],
                retry=FAST_RETRY,
            ) as rc:
                client, origin, job = rc.locate_archive_point(2)
                assert (origin, job) == ("a", "homes")
                try:
                    dest = tmp_path / "routed2"
                    client.restore_as_of(2, dest, job=job, origin=origin)
                finally:
                    client.close()
                assert restored_map(dest) == originals[2]
                with pytest.raises(KeyError):
                    rc.locate_archive_point(99)
            # Proxy mode: ARCHIVE_STATUS fans out and merges; DELTA_FETCH
            # fails over — a dumb client pointed at the router just works.
            with NetClient(
                router.server_address[0], router.server_address[1],
                client_name="dr", retry=FAST_RETRY,
            ) as net:
                merged = net.call_json(m.ARCHIVE_STATUS, {})
                assert "vaultkeep" in merged["nodes"]
                assert merged["origins"]["a"]["homes"]["points"] == [1, 2, 3]
                dest = tmp_path / "routed3"
                restore_remote(net, 3, dest)
            assert restored_map(dest) == originals[3]
        finally:
            router.shutdown()
            router.server_close()
            thread.join(timeout=5)


# -- the CLI surface -------------------------------------------------------------
class TestArchiveCli:
    def test_runs_json_lists_archive_fields(self, tmp_path, capsys):
        from repro import cli

        mutate_dataset(tmp_path, 1)
        vault_dir = tmp_path / "v"
        assert cli.main([
            "backup", "--vault", str(vault_dir), "--job", "homes",
            str(tmp_path / "data"),
        ]) == 0
        capsys.readouterr()
        assert cli.main(["runs", "--vault", str(vault_dir), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        row = rows[0]
        assert row["run_id"] == 1 and row["job"] == "homes"
        assert row["chunks"] > 0 and row["logical_bytes"] > 0
        assert row["timestamp"] > 0

    def test_forget_gc_reclaims_in_one_invocation(self, tmp_path, capsys):
        from repro import cli

        vault_dir = tmp_path / "v"
        for r in (1, 2):
            mutate_dataset(tmp_path, r)
            assert cli.main([
                "backup", "--vault", str(vault_dir), "--job", "homes",
                str(tmp_path / "data"),
            ]) == 0
        capsys.readouterr()
        assert cli.main([
            "forget", "--vault", str(vault_dir), "--run", "1", "--gc",
        ]) == 0
        out = capsys.readouterr().out
        assert "gc reclaimed" in out
        # Run 2 survives the combined forget+gc untouched.
        dest = tmp_path / "out"
        assert cli.main([
            "restore", "--vault", str(vault_dir), "--run", "2",
            "--dest", str(dest),
        ]) == 0

    def test_restore_requires_exactly_one_selector(self, tmp_path, capsys):
        from repro import cli

        assert cli.main([
            "restore", "--vault", str(tmp_path / "v"), "--dest", str(tmp_path),
        ]) == cli.EXIT_USAGE
        assert cli.main([
            "restore", "--vault", str(tmp_path / "v"), "--run", "1",
            "--as-of", "2", "--dest", str(tmp_path),
        ]) == cli.EXIT_USAGE

    def test_restore_as_of_local_archive(self, tmp_path, capsys):
        from repro import cli

        vault_dir = tmp_path / "v"
        DebarVault(vault_dir).close()  # an archive daemon's (empty) vault
        store = ArchiveStore(vault_dir / "archive")
        deltas, recipes = chain_deltas(2)
        ingest_chain(store, deltas)
        dest = tmp_path / "out"
        assert cli.main([
            "restore", "--vault", str(vault_dir), "--as-of", "2",
            "--dest", str(dest),
        ]) == 0
        assert (dest / "data" / "shared").read_bytes() == b"shared-payload" * 40
        capsys.readouterr()
        assert cli.main([
            "restore", "--vault", str(vault_dir), "--as-of", "9",
            "--dest", str(dest),
        ]) == cli.EXIT_ERROR
        assert "no archived chain retains" in capsys.readouterr().err

    def test_archive_status_local_json(self, tmp_path, capsys):
        from repro import cli

        vault_dir = tmp_path / "v"
        DebarVault(vault_dir).close()
        store = ArchiveStore(vault_dir / "archive")
        deltas, _ = chain_deltas(2)
        ingest_chain(store, deltas)
        out_path = tmp_path / "archive.json"
        assert cli.main([
            "archive-status", "--vault", str(vault_dir),
            "--json", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["origins"]["a"]["homes"]["points"] == [1, 2]
