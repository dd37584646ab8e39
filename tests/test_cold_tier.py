"""The cold-tier drill: hot→cold migration, byte-identical restores via
batched range GETs, ranged scrub + repair of cold containers, cluster
paths (serve/rebuild) over cold origins, failover when the cold backend
is down, and the migrate/tier-status CLI."""

import json
import threading

import pytest

from repro.backend.lifecycle import LifecycleManager, LifecyclePolicy
from repro.backend.objectstore import BackendFaultRule
from repro.durability.fsshim import flip_byte_on_disk
from repro.durability.scrubber import Scrubber
from repro.net import messages as m
from repro.net.client import NetClient, RetryPolicy, WireSource
from repro.net.server import serve_vault
from repro.replication.rebuild import rebuild_node
from repro.replication.replicator import Replicator
from repro.storage.container import FRAMED_META_FIXED, Container
from repro.storage.reader import ChunkReader
from repro.system import DebarVault
from repro.telemetry.registry import MetricsRegistry
from repro.workloads import FileTreeGenerator

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05, timeout=2.0)

#: Migrate regardless of age — most drills want everything cold.
MIGRATE_ALL = LifecyclePolicy(min_age_runs=0, min_idle_runs=0)


def make_tree(root, seed=21, n_files=5):
    FileTreeGenerator(seed=seed).generate(
        root, n_files=n_files, n_dirs=2, min_size=8 * 1024, max_size=32 * 1024
    )
    return root


def open_vault(tmp_path, name="vault", **kw):
    return DebarVault(tmp_path / name, container_bytes=64 * 1024, **kw)


def read_tree(root):
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def migrate_all(vault):
    report = LifecycleManager(vault, MIGRATE_ALL).migrate()
    assert not report.failed
    return report


def cold_bucket(vault):
    return vault.root / "cold"


def cold_object(vault, cid):
    return cold_bucket(vault) / f"{cid:012x}.ctr"


def run_fingerprints(vault, run_id):
    return [fp for entry in vault.run_entries(run_id) for fp in entry.fingerprints]


def flip_cold_byte(vault, which=0, offset_fn=None):
    """Flip one byte of a cold object; default targets the data section.

    Returns ``(cid, fingerprint, intact_payload)`` — the payload as it was
    before the flip, so repair tests can seed the chunk log with the
    ``<F, D(F)>`` group an interrupted run would have left there."""
    victim = sorted(cold_bucket(vault).glob("*.ctr"))[which]
    cid = int(victim.stem, 16)
    container = Container.deserialize(cid, victim.read_bytes())
    rec = container.records[0]
    payload = bytes(container.data[rec.offset : rec.offset + rec.size])
    if offset_fn is None:
        offset = container.data_start + rec.offset + rec.size // 2
    else:
        offset = offset_fn(container)
    flip_byte_on_disk(victim, offset, 0xFF)
    return cid, rec.fingerprint, payload


def start_daemon(vault, node_name):
    server = serve_vault(vault, node_name=node_name)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


@pytest.fixture()
def cold_vault(tmp_path):
    """A vault whose every container has been migrated to the cold tier."""
    src = make_tree(tmp_path / "src")
    vault = open_vault(tmp_path, telemetry=MetricsRegistry())
    run = vault.backup("docs", [src])
    vault.enable_cold_tier()
    report = migrate_all(vault)
    assert report.migrated > 0
    try:
        yield vault, run, read_tree(src)
    finally:
        try:
            vault.close()
        except ValueError:
            pass  # the test already closed it


class TestMigration:
    def test_migrate_moves_containers_cold(self, cold_vault):
        vault, _, _ = cold_vault
        repo = vault.repository
        cids = repo.container_ids()
        assert cids
        for cid in cids:
            assert repo.tier_of(cid) == "cold"
            assert not (vault.root / "containers" / f"{cid:012x}.ctr").exists()
            assert cold_object(vault, cid).exists()

    def test_migrate_is_idempotent(self, cold_vault):
        vault, _, _ = cold_vault
        again = migrate_all(vault)
        assert again.migrated == 0 and again.bytes_moved == 0
        assert again.already_cold == len(vault.repository.container_ids())

    def test_hot_copy_wins_when_both_exist(self, cold_vault):
        # A crash between put and unlink leaves both copies; the hot file
        # is authoritative until the next migration pass finishes the move.
        vault, _, _ = cold_vault
        repo = vault.repository
        cid = repo.container_ids()[0]
        hot_path = vault.root / "containers" / f"{cid:012x}.ctr"
        hot_path.write_bytes(cold_object(vault, cid).read_bytes())
        assert repo.tier_of(cid) == "hot"
        assert migrate_all(vault).migrated == 1  # pass completes the move
        assert repo.tier_of(cid) == "cold"

    def test_policy_gates_on_age(self, tmp_path):
        vault = open_vault(tmp_path)
        vault.backup("docs", [make_tree(tmp_path / "src")])
        vault.enable_cold_tier()
        # One run: every container was referenced by the newest run, so
        # nothing has aged past the default min_age_runs=1 yet.
        strict = LifecycleManager(vault, LifecyclePolicy()).migrate()
        assert strict.migrated == 0 and strict.skipped > 0
        vault.backup("docs2", [make_tree(tmp_path / "src2", seed=99)])
        after = LifecycleManager(vault, LifecyclePolicy()).migrate()
        assert after.migrated > 0  # run-1-only containers have aged out
        vault.close()

    def test_dry_run_moves_nothing(self, tmp_path):
        vault = open_vault(tmp_path)
        vault.backup("docs", [make_tree(tmp_path / "src")])
        vault.enable_cold_tier()
        report = LifecycleManager(vault, MIGRATE_ALL).migrate(dry_run=True)
        assert report.migrated > 0  # would-migrate count
        assert all(
            vault.repository.tier_of(cid) == "hot"
            for cid in vault.repository.container_ids()
        )
        vault.close()

    def test_reopen_reattaches_cold_tier(self, cold_vault, tmp_path):
        vault, run, before = cold_vault
        root = vault.root
        vault.close()
        reopened = DebarVault(root)
        try:
            assert reopened.repository.cold is not None
            assert all(
                reopened.repository.tier_of(cid) == "cold"
                for cid in reopened.repository.container_ids()
            )
            dest = tmp_path / "re-out"
            reopened.restore(run.run_id, dest, strip_prefix=tmp_path)
            assert read_tree(dest / "src") == before
            assert reopened.stats()["containers_cold"] == len(
                reopened.repository.container_ids()
            )
        finally:
            reopened.close()


class TestColdRestore:
    def test_restore_is_byte_identical(self, cold_vault, tmp_path):
        vault, run, before = cold_vault
        dest = tmp_path / "out"
        vault.restore(run.run_id, dest, strip_prefix=tmp_path)
        assert read_tree(dest / "src") == before
        # The restore went through the planner: batched multi-range GETs,
        # no whole-object downloads.
        assert vault.telemetry.value("storage.planner_cold_chunks") > 0
        assert vault.telemetry.value("storage.batched_gets", backend="object") > 0

    def test_batching_cuts_request_count(self, cold_vault):
        vault, run, _ = cold_vault
        fps = run_fingerprints(vault, run.run_id)
        backend = vault.repository.cold

        def read_all(plan):
            reader = vault.reader(plan)
            before = backend.requests_issued
            blobs = [reader.read_chunk(fp) for fp in fps]
            return blobs, backend.requests_issued - before

        # Primed first: it pays any cold metadata fetches, the unprimed
        # pass (the per-chunk baseline) then rides the warm cache — a
        # conservative comparison.
        batched_blobs, batched = read_all(fps)
        unbatched_blobs, unbatched = read_all(None)
        assert batched_blobs == unbatched_blobs
        # Unprimed is exactly one ranged GET per distinct cold chunk (a
        # repeated fingerprint is served from what was already fetched).
        assert unbatched == len(set(fps))
        assert unbatched >= 2 * batched

    def test_meta_cache_absorbs_repeat_meta_reads(self, cold_vault, tmp_path):
        vault, run, _ = cold_vault
        vault.restore(run.run_id, tmp_path / "o1", strip_prefix=tmp_path)
        vault.restore(run.run_id, tmp_path / "o2", strip_prefix=tmp_path)
        cache = vault.repository.meta_cache
        assert cache.hits > 0

    def test_deep_verify_reads_cold_tier(self, cold_vault):
        vault, _, _ = cold_vault
        counters = vault.verify(deep=True)
        assert counters["fingerprints"] > 0

    def test_verify_cold_payloads_skips_padding(self, cold_vault):
        vault, _, _ = cold_vault
        repo = vault.repository
        for cid in repo.container_ids():
            faults, fetched = repo.verify_cold_payloads(cid)
            assert faults == []
            assert 0 < fetched < cold_object(vault, cid).stat().st_size


class TestColdScrub:
    def test_scrub_detects_cold_bit_flip(self, cold_vault):
        vault, _, _ = cold_vault
        cid, fp, _payload = flip_cold_byte(vault)
        report = Scrubber(vault).run()
        assert report.corrupt_found == 1 and report.unrepaired == 1
        finding = report.findings[0]
        assert finding.artifact == "container"
        assert finding.container_id == cid
        assert finding.fingerprint == fp

    def test_scrub_repairs_cold_from_chunk_log(self, cold_vault, tmp_path):
        vault, run, before = cold_vault
        cid, fp, payload = flip_cold_byte(vault)
        # As if rot struck between dedup-1 and the log's clear: the chunk
        # log still holds the <F, D(F)> group.
        vault.tpds.chunk_log.append(fp, data=payload)
        report = Scrubber(vault).run(repair=True)
        assert report.repaired == 1 and report.unrepaired == 0
        # Healed in place on the cold tier — the repair must not resurrect
        # a hot copy.
        assert vault.repository.tier_of(cid) == "cold"
        dest = tmp_path / "out"
        vault.restore(run.run_id, dest, strip_prefix=tmp_path)
        assert read_tree(dest / "src") == before

    def test_scrub_repairs_cold_from_peer(self, cold_vault, tmp_path):
        vault, run, before = cold_vault
        replica = open_vault(tmp_path, "replica")
        replica.backup("docs", [tmp_path / "src"])
        cid, _fp, _payload = flip_cold_byte(vault)
        report = Scrubber(vault, peers=[("replica", replica.chunk_store)]).run(repair=True)
        assert report.repaired == 1 and report.unrepaired == 0
        assert vault.repository.tier_of(cid) == "cold"
        dest = tmp_path / "out"
        vault.restore(run.run_id, dest, strip_prefix=tmp_path)
        assert read_tree(dest / "src") == before
        replica.close()

    def test_unparseable_cold_container_quarantined_and_rebuilt(
        self, cold_vault, tmp_path
    ):
        vault, run, before = cold_vault
        replica = open_vault(tmp_path, "replica")
        replica.backup("docs", [tmp_path / "src"])
        # Damage the metadata section: the meta CRC no longer holds, the
        # container cannot even be parsed from the cold tier.  Rebuilding
        # it needs every payload — the replica peer supplies them.
        cid, _fp, _payload = flip_cold_byte(
            vault, offset_fn=lambda c: FRAMED_META_FIXED + 4
        )
        report = Scrubber(vault, peers=[("replica", replica.chunk_store)]).run(repair=True)
        assert report.corrupt_found == 1 and report.repaired == 1
        # Forensics copy parked in the bucket, healed object back in place
        # on the same tier.
        qkey = cold_bucket(vault) / f"{cid:012x}.ctr.quarantine"
        assert qkey.exists()
        assert vault.repository.tier_of(cid) == "cold"
        dest = tmp_path / "out"
        vault.restore(run.run_id, dest, strip_prefix=tmp_path)
        assert read_tree(dest / "src") == before
        replica.close()

    def test_scrub_exit_code_via_cli(self, cold_vault, tmp_path, capsys):
        # Separate CLI invocations: detect (exit 3), then repair from a
        # replica daemon (exit 0) — the chunk log does not survive a
        # reopen, so the cross-process repair source is a peer.
        from repro.cli import main

        vault, _, _ = cold_vault
        replica = open_vault(tmp_path, "replica")
        replica.backup("docs", [tmp_path / "src"])
        server = start_daemon(replica, "r")
        flip_cold_byte(vault)
        vault.close()
        try:
            assert main(["scrub", "--vault", str(vault.root)]) == 3
            assert main([
                "scrub", "--vault", str(vault.root), "--repair",
                "--peer", f"{server.host}:{server.port}",
            ]) == 0
        finally:
            server.shutdown()
            server.server_close()
            replica.close()


class TestColdGc:
    def test_gc_collects_cold_containers(self, tmp_path):
        vault = open_vault(tmp_path)
        src1 = make_tree(tmp_path / "src1", seed=1)
        src2 = make_tree(tmp_path / "src2", seed=2)
        run1 = vault.backup("j1", [src1])
        run2 = vault.backup("j2", [src2])
        before2 = read_tree(src2)
        vault.enable_cold_tier()
        migrate_all(vault)
        vault.forget(run1.run_id)
        vault.gc(rewrite_threshold=1.0)
        dest = tmp_path / "out"
        vault.restore(run2.run_id, dest, strip_prefix=tmp_path)
        assert read_tree(dest / "src2") == before2
        assert vault.verify(deep=True)["fingerprints"] > 0
        # No unreferenced cold object may linger after the sweep.
        live = set(vault.repository.container_ids())
        on_bucket = {
            int(p.stem, 16) for p in cold_bucket(vault).glob("*.ctr")
        }
        assert on_bucket <= live
        vault.close()


class TestColdCluster:
    def test_cold_origin_serves_container_fetch(self, cold_vault):
        vault, _, _ = cold_vault
        cid = vault.repository.container_ids()[0]
        expected = vault.repository.read_image(cid)
        server = start_daemon(vault, "a")
        client = NetClient(
            server.host, server.port, client_name="t", retry=FAST_RETRY
        )
        try:
            payload = client.call(
                m.CONTAINER_FETCH,
                m.encode_json({"origin": "a", "container_id": cid}),
            )
            _, image = m.decode_container_image(payload)
            assert image == expected
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    def test_remote_restore_from_cold_daemon(self, cold_vault, tmp_path):
        vault, run, _ = cold_vault
        fps = run_fingerprints(vault, run.run_id)
        local = vault.reader(fps)
        expected = [local.read_chunk(fp) for fp in fps]
        server = start_daemon(vault, "a")
        client = NetClient(
            server.host, server.port, client_name="t", retry=FAST_RETRY
        )
        try:
            reader = ChunkReader([("a", WireSource(client))], fps)
            assert [reader.read_chunk(fp) for fp in fps] == expected
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    def test_rebuild_after_origin_went_cold(self, tmp_path):
        # a replicates hot containers to daemon b, then migrates cold and
        # "dies"; the rebuilt vault must match what the cold tier holds.
        src = make_tree(tmp_path / "src")
        before = read_tree(src)
        vault_b = DebarVault(tmp_path / "b")
        server_b = start_daemon(vault_b, "b")
        registry = MetricsRegistry()
        vault_a = open_vault(tmp_path, "a", telemetry=registry)
        replicator = Replicator(
            vault_a, "a", {"b": (server_b.host, server_b.port)},
            replication_factor=2, retry=FAST_RETRY, registry=registry,
        )
        vault_a.replicator = replicator
        try:
            run = vault_a.backup("docs", [src])
            assert replicator.drain(timeout=10.0)
            vault_a.enable_cold_tier()
            migrate_all(vault_a)
            cold_images = {
                cid: vault_a.repository.read_image(cid)
                for cid in vault_a.repository.container_ids()
            }
            report = rebuild_node(
                "a", tmp_path / "a-rebuilt",
                {"b": (server_b.host, server_b.port)}, retry=FAST_RETRY,
            )
            assert not report.containers_missing
            rebuilt = DebarVault(tmp_path / "a-rebuilt")
            try:
                for cid, image in cold_images.items():
                    assert rebuilt.repository.read_image(cid) == image
                dest = tmp_path / "out"
                rebuilt.restore(run.run_id, dest, strip_prefix=tmp_path)
                assert read_tree(dest / "src") == before
            finally:
                rebuilt.close()
        finally:
            replicator.close(drain=False, timeout=1.0)
            server_b.shutdown()
            server_b.server_close()
            vault_b.close()
            vault_a.close()

    def test_failover_when_cold_backend_is_down(self, cold_vault, tmp_path):
        vault, run, _ = cold_vault
        fps = run_fingerprints(vault, run.run_id)
        local = vault.reader(fps)
        expected = [local.read_chunk(fp) for fp in fps]
        replica = open_vault(tmp_path, "replica")
        replica.backup("docs", [tmp_path / "src"])
        # Every cold request now fails until the retry budget exhausts;
        # RetryExhaustedError is an OSError, so the failover reader falls
        # through to the replica without special-casing the cold tier.
        backend = vault.repository.cold
        backend.sleep = lambda s: None
        backend.faults.append(
            BackendFaultRule(op="*", kind="transient", times=None)
        )
        reader = vault.reader(fps, fallbacks=[("replica", replica.chunk_store)])
        got = [reader.read_chunk(fp) for fp in fps]
        assert got == expected
        assert reader.last_source == "replica"
        replica.close()


class TestColdCli:
    def test_migrate_and_tier_status(self, tmp_path, capsys):
        from repro.cli import main

        vault = open_vault(tmp_path)
        vault.backup("docs", [make_tree(tmp_path / "src")])
        vault.close()
        report_path = tmp_path / "migrate.json"
        code = main([
            "migrate", "--vault", str(tmp_path / "vault"),
            "--min-age", "0", "--report-json", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["migrated"] > 0 and not report["failed"]
        capsys.readouterr()

        status_path = tmp_path / "tier.json"
        code = main([
            "tier-status", "--vault", str(tmp_path / "vault"),
            "--json", str(status_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cold" in out
        doc = json.loads(status_path.read_text())
        assert doc["cold_attached"] is True
        assert doc["tiers"]["cold"]["containers"] == report["migrated"]
        assert doc["tiers"]["hot"]["containers"] == 0

    def test_migrate_refuses_missing_vault(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["migrate", "--vault", str(tmp_path / "nope")]) == 1
        assert "no vault" in capsys.readouterr().err

    def test_restore_cli_from_cold_vault(self, cold_vault, tmp_path):
        from repro.cli import main

        vault, run, before = cold_vault
        vault.close()
        dest = tmp_path / "cli-out"
        code = main([
            "restore", "--vault", str(vault.root), "--run", str(run.run_id),
            "--dest", str(dest), "--strip-prefix", str(tmp_path),
        ])
        assert code == 0
        assert read_tree(dest / "src") == before
