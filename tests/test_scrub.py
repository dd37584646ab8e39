"""Tests for the media scrubber: detection, repair, cursor, and the
end-to-end media-fault drill (bit rot in every artifact class plus an
ENOSPC-aborted dedup-2, healed and resumed)."""

import json

import pytest

from repro.cli import main
from repro.durability.errors import DiskFullError
from repro.durability.fsshim import FaultyFs, LocalFs, flip_byte_on_disk
from repro.durability.framing import superblock_size
from repro.durability.scrubber import CURSOR_FILE, Scrubber
from repro.system import DebarVault
from repro.workloads import FileTreeGenerator


def make_tree(root, seed=21, n_files=5):
    FileTreeGenerator(seed=seed).generate(
        root, n_files=n_files, n_dirs=2, min_size=8 * 1024, max_size=32 * 1024
    )
    return root


def open_vault(tmp_path, name="vault", fs=None):
    return DebarVault(tmp_path / name, container_bytes=64 * 1024, fs=fs)


def flip_container_data_byte(vault_dir, which=0, mask=0xFF):
    """Flip one byte inside a sealed container's *data* section (the
    image is padded to capacity, so a random offset may hit padding)."""
    from repro.storage.container import Container

    victim = sorted((vault_dir / "containers").glob("*.ctr"))[which]
    cid = int(victim.stem, 16)
    container = Container.deserialize(cid, victim.read_bytes())
    rec = container.records[0]
    offset = container.data_start + rec.offset + rec.size // 2
    flip_byte_on_disk(victim, offset, mask)
    return cid, rec.fingerprint


def flip_container_magic(vault_dir, which=0):
    """Flip one bit of a sealed container's superblock magic."""
    victim = sorted((vault_dir / "containers").glob("*.ctr"))[which]
    flip_byte_on_disk(victim, 0, 0x01)
    return int(victim.stem, 16)


def flip_bucket_trailer_and_entry(vault, fp):
    """Flip one bit of the trailer magic of ``fp``'s home bucket in
    ``index.bin`` *and* the low byte of its first entry's container id
    (the first entry's cid starts 4 + 20 bytes into the slot)."""
    index = vault.tpds.index
    k = index.bucket_number(fp)
    path = vault.root / "index.bin"
    flip_byte_on_disk(path, (k + 1) * index.bucket_bytes - 8, 0x01)
    flip_byte_on_disk(path, k * index.bucket_bytes + 24, 0xFF)
    return k


def read_tree(root):
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestDetection:
    def test_clean_vault_scrubs_clean(self, tmp_path):
        vault = open_vault(tmp_path)
        vault.backup("docs", [make_tree(tmp_path / "src")])
        report = Scrubber(vault).run()
        assert report.clean and not report.partial
        assert report.containers_scanned > 0
        assert report.buckets_scanned == vault.tpds.index.n_buckets
        assert not (vault.root / CURSOR_FILE).exists()

    def test_detects_container_bit_flip(self, tmp_path):
        vault = open_vault(tmp_path)
        vault.backup("docs", [make_tree(tmp_path / "src")])
        cid, fp = flip_container_data_byte(vault.root)
        report = Scrubber(vault).run()
        assert report.corrupt_found == 1 and report.unrepaired == 1
        finding = report.findings[0]
        assert finding.artifact == "container"
        assert finding.container_id == cid
        assert finding.fingerprint == fp
        assert finding.offset is not None
        assert not finding.repaired  # read-only pass never repairs

    def test_detects_superblock_magic_flip(self, tmp_path, capsys):
        # One flipped bit in the magic used to send the image down an
        # unframed-format reader that died unpacking garbage counts
        # (struct.error, exit 1); it is corruption: a finding and exit 3
        # from every command that reads the container.
        vault = open_vault(tmp_path)
        vault.backup("docs", [make_tree(tmp_path / "src")])
        cid = flip_container_magic(vault.root)
        report = Scrubber(vault).run()
        assert report.corrupt_found == 1 and report.unrepaired == 1
        finding = report.findings[0]
        assert finding.artifact == "container"
        assert finding.container_id == cid
        assert "bad superblock magic" in finding.detail
        vault.close()
        v = str(tmp_path / "vault")
        assert main(["scrub", "--vault", v]) == 3
        assert main(["audit", "--vault", v, "--deep"]) == 3
        assert main(
            ["restore", "--vault", v, "--run", "1", "--dest", str(tmp_path / "out")]
        ) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_detects_corrupt_chunk_log_record(self, tmp_path):
        vault = open_vault(tmp_path)
        fp = b"\x42" * 20
        vault.tpds.chunk_log.append(fp, data=b"x" * 100)
        vault.close()
        # Flip a payload byte of the only frame: superblock, then the
        # 12-byte frame header, then the framed payload.
        log_path = vault.root / "chunk.log"
        flip_byte_on_disk(log_path, superblock_size(0) + 12 + 30, 0xFF)
        reopened = open_vault(tmp_path)
        assert len(reopened.tpds.chunk_log.corrupt_records) == 1
        report = Scrubber(reopened).run()
        assert report.corrupt_found == 1
        assert report.findings[0].artifact == "chunk log"

    def test_detects_index_bucket_rot(self, tmp_path):
        vault = open_vault(tmp_path)
        run = vault.backup("docs", [make_tree(tmp_path / "src")])
        vault.close()
        fp = run.files[0].fingerprints[0]
        index = vault.tpds.index
        k = index.bucket_number(fp)
        flip_byte_on_disk(
            tmp_path / "vault" / "index.bin", k * index.bucket_bytes + 6, 0xFF
        )
        reopened = open_vault(tmp_path)
        report = Scrubber(reopened).run()
        assert report.corrupt_found == 1
        finding = report.findings[0]
        assert finding.artifact == "index"
        assert finding.offset == k * index.bucket_bytes

    def test_detects_bucket_trailer_magic_flip(self, tmp_path, capsys):
        # Regression (ROADMAP 3c): one flipped bit in a bucket's trailer
        # magic made the slot read as "legacy, no checksum", so damage to
        # an entry in the same bucket scrubbed CLEAN and `verify --deep`
        # later died on a dangling container id.
        vault = open_vault(tmp_path)
        run = vault.backup("docs", [make_tree(tmp_path / "src")])
        vault.close()
        k = flip_bucket_trailer_and_entry(vault, run.files[0].fingerprints[0])
        reopened = open_vault(tmp_path)
        report = Scrubber(reopened).run()
        assert not report.clean and report.corrupt_found == 1
        finding = report.findings[0]
        assert finding.artifact == "index"
        assert finding.offset == k * reopened.tpds.index.bucket_bytes
        reopened.close()
        assert main(["scrub", "--vault", str(tmp_path / "vault")]) == 3
        capsys.readouterr()
        assert main(["verify", "--vault", str(tmp_path / "vault"), "--deep"]) == 3
        assert "corruption" in capsys.readouterr().err


class TestRepair:
    def test_repairs_bucket_with_damaged_trailer(self, tmp_path):
        vault = open_vault(tmp_path)
        run = vault.backup("docs", [make_tree(tmp_path / "src")])
        vault.close()
        fp = run.files[0].fingerprints[0]
        flip_bucket_trailer_and_entry(vault, fp)
        reopened = open_vault(tmp_path)
        report = Scrubber(reopened).run(repair=True)
        assert report.repaired == 1 and report.unrepaired == 0
        assert report.entries_reinserted >= 1
        assert reopened.tpds.index.lookup(fp) is not None
        assert Scrubber(reopened).run().clean
        assert reopened.verify(deep=True)["payloads_verified"] > 0

    def test_repairs_container_from_chunk_log(self, tmp_path):
        src = make_tree(tmp_path / "src")
        before = read_tree(src)
        vault = open_vault(tmp_path)
        run = vault.backup("docs", [src])
        cid, fp = flip_container_data_byte(vault.root)
        # The chunk log still holds the <F, D(F)> group (as it would if
        # rot struck between dedup-1 and the log's clear).
        intact = dict(before)  # find the damaged chunk's true payload
        container = vault.repository.fetch(cid)
        # Reconstruct the payload via a clean replica of the same data.
        replica = open_vault(tmp_path, "replica")
        replica.backup("docs", [src])
        payload = replica.chunk_store.read_chunk(fp)
        vault.tpds.chunk_log.append(fp, data=payload)

        report = Scrubber(vault).run(repair=True)
        assert report.corrupt_found == 1 and report.repaired == 1
        assert report.unrepaired == 0 and not report.degraded_files
        assert Scrubber(vault).run().clean
        vault.verify(deep=True)  # would raise on any residual damage
        dest = tmp_path / "out"
        vault.restore(run.run_id, dest, strip_prefix=tmp_path)
        assert read_tree(dest / "src") == before

    def test_rebuilds_container_with_flipped_magic_from_chunk_log(self, tmp_path):
        src = make_tree(tmp_path / "src")
        before = read_tree(src)
        vault = open_vault(tmp_path)
        run = vault.backup("docs", [src])
        cid = flip_container_magic(vault.root)
        # The chunk log still holds the container's <F, D(F)> groups (as
        # it would if rot struck between dedup-1 and the log's clear);
        # their payloads come from a clean replica of the same data.
        replica = open_vault(tmp_path, "replica")
        replica.backup("docs", [src])
        members = [fp for fp, c in vault.tpds.index.iter_entries() if c == cid]
        assert members
        for fp in members:
            vault.tpds.chunk_log.append(fp, data=replica.chunk_store.read_chunk(fp))

        report = Scrubber(vault).run(repair=True)
        assert report.corrupt_found == 1 and report.repaired == 1
        assert report.unrepaired == 0 and not report.degraded_files
        assert Scrubber(vault).run().clean
        vault.verify(deep=True)  # would raise on any residual damage
        dest = tmp_path / "out"
        vault.restore(run.run_id, dest, strip_prefix=tmp_path)
        assert read_tree(dest / "src") == before

    def test_repairs_container_from_peer(self, tmp_path):
        src = make_tree(tmp_path / "src")
        before = read_tree(src)
        vault = open_vault(tmp_path)
        run = vault.backup("docs", [src])
        replica = open_vault(tmp_path, "replica")
        replica.backup("docs", [src])

        cid, _fp = flip_container_data_byte(vault.root)
        # Any object with read_chunk(fp) serves as a repair peer; the
        # local ChunkStore of a replica vault is exactly that shape.
        report = Scrubber(vault, peers=[("replica", replica.chunk_store)]).run(repair=True)
        assert report.repaired == 1 and report.unrepaired == 0
        dest = tmp_path / "out"
        vault.restore(run.run_id, dest, strip_prefix=tmp_path)
        assert read_tree(dest / "src") == before

    def test_unrepairable_marks_files_degraded(self, tmp_path):
        src = make_tree(tmp_path / "src")
        vault = open_vault(tmp_path)
        vault.backup("docs", [src])
        cid, fp = flip_container_data_byte(vault.root)
        report = Scrubber(vault).run(repair=True)  # no log copy, no peers
        assert report.unrepaired == 1
        assert report.degraded_files
        # Assert on the committed file: the flag must survive a reopen.
        hex_fp = fp.hex()
        catalog = json.loads((vault.root / "catalog.json").read_text())
        flagged = [
            f
            for run in catalog["runs"]
            for f in run["files"]
            if hex_fp in f["fingerprints"]
        ]
        assert flagged and all(f.get("degraded") for f in flagged)

    def test_repairs_chunk_log_by_rewrite(self, tmp_path):
        vault = open_vault(tmp_path)
        vault.tpds.chunk_log.append(b"\x01" * 20, data=b"a" * 50)
        vault.tpds.chunk_log.append(b"\x02" * 20, data=b"b" * 50)
        vault.close()
        log_path = vault.root / "chunk.log"
        flip_byte_on_disk(log_path, superblock_size(0) + 12 + 30, 0xFF)
        # auto_recover=False isolates the scrubber's own rewrite (the
        # recovery replay would otherwise consume and clear the log).
        reopened = DebarVault(
            tmp_path / "vault", container_bytes=64 * 1024, auto_recover=False
        )
        assert len(reopened.tpds.chunk_log.corrupt_records) == 1
        assert len(reopened.tpds.chunk_log) == 1  # the intact group
        report = Scrubber(reopened).run(repair=True)
        assert report.repaired == 1
        assert reopened.tpds.chunk_log.corrupt_records == []
        assert (vault.root / "chunk.log.quarantine").exists()
        # The rewritten file reloads with only the intact group, which
        # the auto-recovery replay then consumes cleanly.
        again = open_vault(tmp_path)
        assert again.tpds.chunk_log.corrupt_records == []
        assert Scrubber(again).run().clean

    def test_clear_quarantines_corrupt_frames(self, tmp_path):
        # Open-time recovery replays the intact group and clears the
        # log; the corrupt frame it carried must survive in the
        # quarantine file, not be silently destroyed by the rewrite.
        vault = open_vault(tmp_path)
        vault.tpds.chunk_log.append(b"\x01" * 20, data=b"a" * 50)
        vault.tpds.chunk_log.append(b"\x02" * 20, data=b"b" * 50)
        vault.close()
        flip_byte_on_disk(
            vault.root / "chunk.log", superblock_size(0) + 12 + 30, 0xFF
        )
        reopened = open_vault(tmp_path)  # recovery replays + clears
        assert reopened.recovery_report.replayed
        assert (vault.root / "chunk.log.quarantine").exists()
        assert reopened.tpds.chunk_log.quarantined_bytes > 0

    def test_repairs_index_bucket_and_reinserts(self, tmp_path):
        vault = open_vault(tmp_path)
        run = vault.backup("docs", [make_tree(tmp_path / "src")])
        vault.close()
        fp = run.files[0].fingerprints[0]
        index = vault.tpds.index
        k = index.bucket_number(fp)
        flip_byte_on_disk(
            tmp_path / "vault" / "index.bin", k * index.bucket_bytes + 6, 0xFF
        )
        reopened = open_vault(tmp_path)
        report = Scrubber(reopened).run(repair=True)
        assert report.repaired == 1
        assert report.entries_reinserted >= 1
        assert reopened.tpds.index.lookup(fp) is not None
        assert Scrubber(reopened).run().clean
        assert reopened.audit(deep=True).ok


class TestIncrementalSweep:
    def test_budget_saves_cursor_and_resumes(self, tmp_path):
        vault = open_vault(tmp_path)
        vault.backup("docs", [make_tree(tmp_path / "src")])
        first = Scrubber(vault, max_records=50).run()
        assert first.partial and not first.resumed
        cursor = json.loads((vault.root / CURSOR_FILE).read_text())
        assert cursor["phase"] in ("containers", "chunk-log", "index")
        total = first.records_checked
        passes = 1
        report = first
        while report.partial:
            report = Scrubber(vault, max_records=2000).run()
            # A pass picking up a cursor must not claim full coverage.
            assert report.resumed
            assert "resumed pass" in report.summary() or report.partial
            total += report.records_checked
            passes += 1
            assert passes < 20
        assert not (vault.root / CURSOR_FILE).exists()
        # Cumulative coverage equals one unbudgeted pass.
        final = Scrubber(vault).run()
        assert total == final.records_checked
        assert not final.resumed and "full pass" in final.summary()

    def test_reset_cursor_restarts(self, tmp_path):
        vault = open_vault(tmp_path)
        vault.backup("docs", [make_tree(tmp_path / "src")])
        Scrubber(vault, max_records=50).run()
        assert (vault.root / CURSOR_FILE).exists()
        report = Scrubber(vault, reset_cursor=True).run()
        assert not report.partial
        assert report.records_checked == Scrubber(vault).run().records_checked

    def test_rate_limit_sleeps(self, tmp_path):
        vault = open_vault(tmp_path)
        vault.backup("docs", [make_tree(tmp_path / "src")])
        naps = []
        report = Scrubber(vault, rate_bps=1024 * 1024, sleep=naps.append).run()
        assert not report.partial
        # At 1 MB/s the multi-MB sweep must have throttled, and total
        # sleep should approximate bytes_read / rate.
        assert naps
        assert sum(naps) == pytest.approx(report.bytes_read / (1024 * 1024), rel=0.2)


class TestGcScrubInteraction:
    """gc interleaved with a budgeted scrub: the resumed pass must neither
    skip containers gc rewrote nor double-count the prefix already swept."""

    def test_resumed_scrub_covers_gc_rewrites_exactly_once(self, tmp_path):
        from tests.test_gc import vault_with_two_generations

        vault, src, run1, run2 = vault_with_two_generations(tmp_path)
        first = Scrubber(vault, max_records=1).run()
        assert first.partial and first.containers_scanned == 1
        cursor = json.loads((vault.root / CURSOR_FILE).read_text())
        assert cursor["phase"] == "containers" and cursor["position"] > 0
        position = cursor["position"]
        before = set(vault.repository.container_ids())
        vault.forget(run1.run_id)
        gc_report = vault.gc(rewrite_threshold=1.0)
        assert gc_report.containers_rewritten > 0
        after = vault.repository.container_ids()
        # Copy-forward allocates fresh ids, all past the saved cursor, so
        # the resumed pass picks up every rewrite without rescanning the
        # already-swept prefix.
        new_ids = [cid for cid in after if cid not in before]
        assert new_ids and min(new_ids) >= position
        resumed = Scrubber(vault).run()
        assert resumed.resumed and not resumed.partial
        expected = [cid for cid in after if cid >= position]
        assert resumed.containers_scanned == len(expected)
        assert resumed.clean
        # A fresh full pass over the post-gc vault covers everything.
        final = Scrubber(vault).run()
        assert not final.resumed and final.clean
        assert final.containers_scanned == len(after)

    def test_resumed_scrub_tolerates_container_removed_at_cursor(self, tmp_path):
        from tests.test_gc import vault_with_two_generations

        vault, src, run1, run2 = vault_with_two_generations(
            tmp_path, overlap=False
        )
        Scrubber(vault, max_records=1).run()
        cursor = json.loads((vault.root / CURSOR_FILE).read_text())
        assert cursor["position"] > 0
        vault.forget(run1.run_id)
        vault.forget(run2.run_id)
        vault.gc()
        assert vault.repository.container_ids() == []
        # The container the cursor points at no longer exists; the resumed
        # pass must finish cleanly rather than hunting for it.
        resumed = Scrubber(vault).run()
        assert resumed.resumed and not resumed.partial and resumed.clean
        assert resumed.containers_scanned == 0
        assert not (vault.root / CURSOR_FILE).exists()


class TestScrubCli:
    def test_exit_codes_and_report_json(self, tmp_path, capsys):
        src = make_tree(tmp_path / "src")
        vault = open_vault(tmp_path)
        vault.backup("docs", [src])
        vault.close()
        v = str(tmp_path / "vault")
        assert main(["scrub", "--vault", v]) == 0
        capsys.readouterr()
        cid, _ = flip_container_data_byte(tmp_path / "vault")
        report_path = tmp_path / "report.json"
        assert main(["scrub", "--vault", v, "--report-json", str(report_path)]) == 3
        out = capsys.readouterr().out
        assert "DAMAGED" in out
        doc = json.loads(report_path.read_text())
        assert doc["corrupt_found"] == 1 and doc["unrepaired"] == 1
        assert doc["findings"][0]["container_id"] == cid

    def test_cli_repair_via_peer_flag_shape(self, tmp_path, capsys):
        # --peer requires host:port; a malformed spec is an operational
        # error (1), not a crash.
        vault = open_vault(tmp_path)
        vault.close()
        assert main(
            ["scrub", "--vault", str(tmp_path / "vault"), "--peer", "nonsense"]
        ) == 1
        assert "host:port" in capsys.readouterr().err

    def test_missing_vault_refused(self, tmp_path, capsys):
        missing = tmp_path / "no-such-vault"
        assert main(["scrub", "--vault", str(missing)]) == 1
        assert "no vault" in capsys.readouterr().err
        assert not missing.exists()


class TestMediaFaultDrill:
    """The ISSUE's composite drill: ENOSPC mid-dedup-2, bit rot in every
    artifact class, scrub --repair with a replica peer, resumed backup
    with no double-store, byte-identical restore."""

    def test_full_drill(self, tmp_path):
        src = make_tree(tmp_path / "src", seed=11, n_files=6)
        snapshot = read_tree(src)

        # A clean replica of run 1 (the repair source).
        replica = open_vault(tmp_path, "replica")
        replica.backup("docs", [src])

        # Run 1 lands cleanly; then the disk "fills" and run 2's dedup-2
        # aborts with DiskFullError mid-chunk-storing (the quota admits
        # the whole chunk log and one sealed container, then refuses).
        quota_fs = FaultyFs(quota_bytes=680_000)
        vault = open_vault(tmp_path, "vault", fs=quota_fs)
        run1 = vault.backup("docs", [src])
        grow = tmp_path / "src" / "grow"
        grow.mkdir()
        for i in range(8):
            (grow / f"new{i}.bin").write_bytes(bytes([i]) * 48 * 1024)
        with pytest.raises(DiskFullError):
            vault.backup("docs", [src])
        assert len(vault.tpds.chunk_log) > 0  # groups awaiting resume
        assert vault.tpds.checking.pending()  # the seal that did land

        # Bit rot strikes every artifact class: a run-1 container, a
        # pending chunk-log frame, and an index bucket.
        cid, _fp = flip_container_data_byte(tmp_path / "vault")
        flip_byte_on_disk(
            tmp_path / "vault" / "chunk.log", superblock_size(0) + 12 + 30, 0xFF
        )
        fp1 = run1.files[0].fingerprints[0]
        index = vault.tpds.index
        k = index.bucket_number(fp1)
        flip_byte_on_disk(
            tmp_path / "vault" / "index.bin", k * index.bucket_bytes + 6, 0xFF
        )

        # Space frees up.  Scrub BEFORE replaying the interrupted work
        # (auto_recover=False models `repro scrub --repair` run first):
        # all three damage classes surface, and the replica peer plus
        # the log's own intact frames heal every one.
        damaged = DebarVault(
            tmp_path / "vault",
            container_bytes=64 * 1024,
            fs=LocalFs(),
            auto_recover=False,
        )
        report = Scrubber(damaged, peers=[("replica", replica.chunk_store)]).run(repair=True)
        artifacts = {f.artifact for f in report.findings}
        assert artifacts == {"container", "chunk log", "index"}
        assert report.corrupt_found >= 3
        assert report.unrepaired == 0, report.summary()
        assert Scrubber(damaged).run().clean
        damaged.close()

        # Reopen: auto-recovery replays the surviving log groups and
        # finishes the interrupted dedup-2.
        healed = open_vault(tmp_path, "vault", fs=LocalFs())
        assert healed.recovery_report is not None
        assert healed.recovery_report.replayed

        # Resume: re-running the interrupted job stores nothing twice.
        healed.backup("docs", [src])
        audit = healed.audit(deep=True)
        assert audit.ok, audit.summary()
        assert not audit.has("duplicate-store")

        # Run 1 still restores byte-identical.
        dest = tmp_path / "out"
        healed.restore(run1.run_id, dest, strip_prefix=tmp_path)
        restored = read_tree(dest / "src")
        for path, blob in snapshot.items():
            assert restored[path] == blob
