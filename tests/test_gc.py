"""Tests for retention (forget) and garbage collection in the vault."""

import json
import random
import threading

import pytest

from repro.backend.lifecycle import LifecycleManager, LifecyclePolicy
from repro.core.disk_index import DiskIndex
from repro.durability.errors import CorruptionError
from repro.durability.fsshim import flip_byte_on_disk
from repro.durability.scrubber import Scrubber
from repro.system import DebarVault, VaultError
from repro.workloads import FileTreeGenerator, mutate_tree
from tests.conftest import make_fps


def vault_with_two_generations(tmp_path, overlap=True):
    """Two runs; the second shares most chunks with the first iff overlap."""
    src = tmp_path / "src"
    FileTreeGenerator(seed=11).generate(
        src, n_files=6, n_dirs=2, min_size=8 * 1024, max_size=32 * 1024
    )
    vault = DebarVault(tmp_path / "vault", container_bytes=64 * 1024)
    run1 = vault.backup("docs", [src])
    if overlap:
        mutate_tree(src, seed=12, edit_fraction=0.3, new_files=1, delete_files=0)
    else:
        for p in list(src.rglob("*.bin")):
            p.unlink()
        FileTreeGenerator(seed=99).generate(
            src / "fresh", n_files=6, n_dirs=1, min_size=8 * 1024, max_size=32 * 1024
        )
    run2 = vault.backup("docs", [src])
    return vault, src, run1, run2


class TestIndexDelete:
    def test_delete_present(self):
        index = DiskIndex(6, bucket_bytes=512)
        fps = make_fps(40)
        for i, fp in enumerate(fps):
            index.insert(fp, i)
        assert index.delete(fps[7])
        assert index.lookup(fps[7]) is None
        assert len(index) == 39
        # Everything else intact.
        assert all(index.lookup(fp) is not None for fp in fps if fp != fps[7])

    def test_delete_absent(self):
        index = DiskIndex(6, bucket_bytes=512)
        assert not index.delete(make_fps(1)[0])

    def test_delete_overflowed_entry(self):
        index = DiskIndex(4, bucket_bytes=512)
        cap = index.bucket_capacity
        target, offset = [], 0
        while len(target) < cap + 2:
            target.extend(
                fp for fp in make_fps(300, start=offset) if index.bucket_number(fp) == 6
            )
            offset += 300
        target = target[: cap + 2]
        for i, fp in enumerate(target):
            index.insert(fp, i)
        # The overflowed entries live in neighbours; delete must find them.
        for fp in target:
            assert index.delete(fp)
        assert len(index) == 0


class TestForget:
    def test_forget_removes_from_catalog(self, tmp_path):
        vault, _, run1, run2 = vault_with_two_generations(tmp_path)
        vault.forget(run1.run_id)
        assert [r.run_id for r in vault.runs()] == [run2.run_id]

    def test_forget_unknown_run(self, tmp_path):
        vault = DebarVault(tmp_path / "vault")
        with pytest.raises(VaultError):
            vault.forget(7)

    def test_chunks_survive_until_gc(self, tmp_path):
        vault, _, run1, run2 = vault_with_two_generations(tmp_path)
        physical = vault.stats()["physical_bytes"]
        vault.forget(run1.run_id)
        assert vault.stats()["physical_bytes"] == physical  # nothing reclaimed yet

    @pytest.mark.parametrize(
        "forgotten", [[1], [3], [1, 2, 3]], ids=["first", "last", "all"]
    )
    def test_run_ids_are_never_reused(self, tmp_path, forgotten):
        # Run ids used to be len(runs) + 1: backup x3, forget 1, backup
        # listed runs [2, 3, 3].  They are monotonic for the life of the
        # vault, across a close/reopen, whichever runs were forgotten.
        src = tmp_path / "src"
        FileTreeGenerator(seed=5).generate(
            src, n_files=2, n_dirs=1, min_size=4 * 1024, max_size=8 * 1024
        )
        with DebarVault(tmp_path / "vault") as vault:
            assert [vault.backup("docs", [src]).run_id for _ in range(3)] == [1, 2, 3]
            for run_id in forgotten:
                vault.forget(run_id)
        with DebarVault(tmp_path / "vault") as vault:
            assert vault.backup("docs", [src]).run_id == 4
            assert vault.backup("other", [src]).run_id == 5
            ids = [r.run_id for r in vault.runs()]
            assert ids == sorted(set(ids)) and ids[-2:] == [4, 5]

    def test_catalog_without_the_counter_resumes_above_its_runs(self, tmp_path):
        # next_run_id is an optional catalog key (no version bump): a
        # catalog written before it existed mints above its highest run.
        src = tmp_path / "src"
        FileTreeGenerator(seed=5).generate(
            src, n_files=2, n_dirs=1, min_size=4 * 1024, max_size=8 * 1024
        )
        with DebarVault(tmp_path / "vault") as vault:
            for _ in range(3):
                vault.backup("docs", [src])
            vault.forget(1)
        catalog_path = tmp_path / "vault" / "catalog.json"
        catalog = json.loads(catalog_path.read_text())
        assert catalog.pop("next_run_id") == 4
        catalog_path.write_text(json.dumps(catalog))
        with DebarVault(tmp_path / "vault") as vault:
            assert vault.backup("docs", [src]).run_id == 4


class TestGc:
    def test_noop_when_everything_live(self, tmp_path):
        vault, _, _, _ = vault_with_two_generations(tmp_path)
        report = vault.gc()
        assert report.containers_removed == 0
        assert report.containers_rewritten == 0
        assert report.bytes_reclaimed == 0

    def test_reclaims_after_forgetting_disjoint_run(self, tmp_path):
        vault, src, run1, run2 = vault_with_two_generations(tmp_path, overlap=False)
        before = vault.stats()["physical_bytes"]
        vault.forget(run1.run_id)
        report = vault.gc(rewrite_threshold=1.0)
        assert report.bytes_reclaimed > 0
        assert vault.stats()["physical_bytes"] < before
        # The surviving run still restores byte-identically.
        vault.restore(run2.run_id, tmp_path / "out", strip_prefix=tmp_path)
        for p in sorted(x for x in src.rglob("*") if x.is_file()):
            assert (tmp_path / "out" / p.relative_to(tmp_path)).read_bytes() == p.read_bytes()

    def test_copy_forward_preserves_shared_chunks(self, tmp_path):
        vault, src, run1, run2 = vault_with_two_generations(tmp_path, overlap=True)
        vault.forget(run1.run_id)
        report = vault.gc(rewrite_threshold=1.0)  # rewrite every mixed container
        # Shared chunks were copied forward, not dropped.
        assert vault.verify()["fingerprints"] > 0
        vault.restore(run2.run_id, tmp_path / "out2", strip_prefix=tmp_path)
        for p in sorted(x for x in src.rglob("*") if x.is_file()):
            assert (tmp_path / "out2" / p.relative_to(tmp_path)).read_bytes() == p.read_bytes()
        # Index contains exactly the live set afterwards.
        assert vault.stats()["index_entries"] == len(vault.live_fingerprints())

    def test_threshold_zero_keeps_mixed_containers(self, tmp_path):
        vault, _, run1, _ = vault_with_two_generations(tmp_path, overlap=True)
        vault.forget(run1.run_id)
        report = vault.gc(rewrite_threshold=0.0)
        assert report.containers_rewritten == 0
        # Mixed containers are kept; fully dead ones may still be removed.
        assert report.containers_kept_with_dead + report.containers_removed > 0

    def test_forget_all_runs_empties_vault(self, tmp_path):
        vault, _, run1, run2 = vault_with_two_generations(tmp_path)
        vault.forget(run1.run_id)
        vault.forget(run2.run_id)
        report = vault.gc()
        assert vault.stats()["physical_bytes"] == 0
        assert vault.stats()["index_entries"] == 0
        assert report.containers_removed > 0

    def test_invalid_threshold(self, tmp_path):
        vault = DebarVault(tmp_path / "vault")
        with pytest.raises(VaultError):
            vault.gc(rewrite_threshold=2.0)

    def test_gc_survives_reopen(self, tmp_path):
        vault, src, run1, run2 = vault_with_two_generations(tmp_path, overlap=True)
        vault.forget(run1.run_id)
        vault.gc(rewrite_threshold=1.0)
        vault.close()
        with DebarVault(tmp_path / "vault") as reopened:
            assert reopened.verify()["runs"] == 1
            reopened.restore(run2.run_id, tmp_path / "out3", strip_prefix=tmp_path)


class TestGcCarriesChecksums:
    """Copy-forward must move a chunk's stored CRC with it.

    ``gc`` used to re-add live chunks without their CRC, so ``serialize``
    computed a fresh one from whatever bytes had been read back: rot in a
    live payload came out of gc with a matching checksum — invisible to
    ``scrub`` (and to ``scrub --repair``'s sources) for good, while
    ``verify --deep`` still failed on the SHA-1.
    """

    @staticmethod
    def rotted_vault(tmp_path, cold):
        """keep + drop backed up, keep alone backed up, run 1 forgotten,
        one payload byte of a live chunk flipped in a container that also
        holds dead chunks.  Returns (vault, damaged fingerprint)."""
        src = tmp_path / "src"
        src.mkdir()
        (src / "drop.bin").write_bytes(random.Random(1).randbytes(300_000))
        (src / "keep.bin").write_bytes(random.Random(2).randbytes(100_000))
        vault = DebarVault(tmp_path / "vault", container_bytes=256 * 1024)
        run1 = vault.backup("docs", [src])
        (src / "drop.bin").unlink()
        vault.backup("docs", [src])
        if cold:
            vault.enable_cold_tier()
            policy = LifecyclePolicy(min_age_runs=0, min_idle_runs=0)
            assert LifecycleManager(vault, policy).migrate().migrated
        vault.forget(run1.run_id)
        live = vault.live_fingerprints()
        for cid in vault.repository.container_ids():
            container = vault.repository.fetch(cid)
            victims = [r for r in container.records if r.fingerprint in live]
            if victims and len(victims) < len(container.records):
                break
        else:
            raise AssertionError("no container mixes live and dead chunks")
        rec = victims[0]
        tier = "cold" if cold else "containers"
        assert vault.repository.tier_of(cid) == ("cold" if cold else "hot")
        flip_byte_on_disk(
            vault.root / tier / f"{cid:012x}.ctr",
            container.data_start + rec.offset + rec.size // 2,
            0xFF,
        )
        vault.repository.invalidate(cid)
        return vault, rec.fingerprint

    @staticmethod
    def crc_findings(vault):
        report = Scrubber(vault).run()
        assert all("payload CRC mismatch" in f.detail for f in report.findings)
        return [f.fingerprint for f in report.findings]

    @pytest.mark.parametrize("cold", [False, True], ids=["hot", "cold"])
    def test_gc_does_not_launder_bit_rot(self, tmp_path, cold):
        vault, fp = self.rotted_vault(tmp_path, cold)
        assert self.crc_findings(vault) == [fp]
        report = vault.gc(rewrite_threshold=0.9)
        assert report.containers_rewritten >= 1 and report.live_chunks_copied > 1
        # The damaged chunk moved; its CRC moved with it, so scrub still
        # sees exactly that payload (before the fix: CLEAN).
        assert self.crc_findings(vault) == [fp]
        with pytest.raises(CorruptionError, match="does not match its fingerprint"):
            vault.verify(deep=True)

    def test_cli_scrub_exits_3_after_gc(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        vault, fp = self.rotted_vault(tmp_path, cold=False)
        vault.close()
        root = str(tmp_path / "vault")
        assert cli_main(["gc", "--vault", root, "--rewrite-threshold", "0.9"]) == 0
        capsys.readouterr()
        assert cli_main(["scrub", "--vault", root]) == 3
        assert f"payload CRC mismatch for {fp.hex()[:12]}" in capsys.readouterr().out

    def test_copied_records_keep_their_stored_crcs(self, tmp_path):
        vault, _, run1, _ = vault_with_two_generations(tmp_path, overlap=True)
        stored = {
            rec.fingerprint: rec.crc
            for cid in vault.repository.container_ids()
            for rec in vault.repository.fetch(cid).records
        }
        assert None not in stored.values()
        vault.forget(run1.run_id)
        assert vault.gc(rewrite_threshold=1.0).live_chunks_copied
        for cid in vault.repository.container_ids():
            vault.repository.invalidate(cid)  # read the images, not the cache
            for rec in vault.repository.fetch(cid).records:
                assert rec.crc == stored[rec.fingerprint]


class TestGcForgetsRemovedContainers:
    """``gc`` must drop the containers it removes from the LPC.

    The LPC maps fingerprints to container ids.  ``gc`` used to remove
    containers without telling it, so once a restore had warmed it, a
    long-lived vault sent reads of copied-forward chunks to a container
    that no longer existed: ``KeyError: 'container 0 not in repository'``
    in process, and through ``repro serve`` a ``RemoteError`` after the
    daemon fell through to its replica store.  A freshly opened vault
    restored the same run fine.
    """

    @staticmethod
    def warm_then_gc(target, tmp_path):
        """keep + drop backed up, keep alone backed up, run 2 restored
        (warming the LPC), run 1 forgotten, gc.  Returns (run 2's id,
        the gc report as a dict, the source directory)."""
        src = tmp_path / "src"
        src.mkdir()
        (src / "keep.bin").write_bytes(random.Random(3).randbytes(200_000))
        (src / "drop.bin").write_bytes(random.Random(4).randbytes(600_000))
        run1 = target.backup("docs", [str(src)])
        (src / "drop.bin").unlink()
        run2 = target.backup("docs", [str(src)])
        target.restore(run2.run_id, tmp_path / "warm", strip_prefix=tmp_path)
        target.forget(run1.run_id)
        report = target.gc(rewrite_threshold=0.9)
        return run2.run_id, report if isinstance(report, dict) else vars(report), src

    @staticmethod
    def assert_restores(target, run_id, src, tmp_path):
        target.restore(run_id, tmp_path / "out", strip_prefix=tmp_path)
        assert (tmp_path / "out" / "src" / "keep.bin").read_bytes() == (
            src / "keep.bin"
        ).read_bytes()

    def test_restore_after_gc_in_process(self, tmp_path):
        vault = DebarVault(tmp_path / "vault")
        run_id, report, src = self.warm_then_gc(vault, tmp_path)
        assert report["containers_rewritten"] == 1
        assert report["live_chunks_copied"] > 1
        self.assert_restores(vault, run_id, src, tmp_path)

    def test_restore_after_gc_through_serve(self, tmp_path):
        from repro.net.client import RemoteBackupClient
        from repro.net.server import serve_vault

        vault = DebarVault(tmp_path / "vault")
        server = serve_vault(vault)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with RemoteBackupClient(*server.server_address) as client:
                run_id, report, src = self.warm_then_gc(client, tmp_path)
                assert report["containers_rewritten"] == 1
                self.assert_restores(client, run_id, src, tmp_path)
        finally:
            server.shutdown()
            server.server_close()
            vault.close()


class TestGcCli:
    def test_cli_forget_and_gc(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        vault, _, run1, _ = vault_with_two_generations(tmp_path, overlap=False)
        vault.close()
        root = str(tmp_path / "vault")
        assert cli_main(["forget", "--vault", root, "--run", str(run1.run_id)]) == 0
        assert cli_main(["gc", "--vault", root, "--rewrite-threshold", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "reclaimed" in out
        assert cli_main(["verify", "--vault", root]) == 0
