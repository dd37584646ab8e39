"""Tests for the persistent on-disk vault and its CLI."""

from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.system import DebarVault, VaultError
from repro.workloads import FileTreeGenerator, mutate_tree


def make_source(tmp_path, seed=1, n_files=6):
    src = tmp_path / "src"
    FileTreeGenerator(seed=seed).generate(
        src, n_files=n_files, n_dirs=2, min_size=8 * 1024, max_size=48 * 1024
    )
    return src


class TestFileChangesWhileRead:
    """A live file may change size between ``stat()`` and the read."""

    @pytest.mark.parametrize(
        "resize",
        [lambda data: data + b"one more log line\n", lambda data: data[:-100]],
        ids=["appended", "truncated"],
    )
    def test_size_on_record_is_what_was_read(self, tmp_path, monkeypatch, resize):
        log = tmp_path / "src" / "app.log"
        log.parent.mkdir()
        log.write_bytes(b"line\n" * 2000)
        read_bytes = Path.read_bytes

        def resized_after_stat(path):
            if path == log:
                log.write_bytes(resize(read_bytes(log)))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", resized_after_stat)
        with DebarVault(tmp_path / "vault") as vault:
            run = vault.backup("logs", [log.parent])
            monkeypatch.undo()
            was_read = log.read_bytes()
            assert len(was_read) != 10_000
            assert run.logical_bytes == len(was_read)
            vault.restore(run.run_id, tmp_path / "out", strip_prefix=tmp_path)
        assert (tmp_path / "out" / "src" / "app.log").read_bytes() == was_read


class TestVaultLifecycle:
    def test_backup_and_restore(self, tmp_path):
        src = make_source(tmp_path)
        with DebarVault(tmp_path / "vault") as vault:
            run = vault.backup("docs", [src])
            assert run.run_id == 1
            assert run.logical_bytes > 0
            vault.restore(run.run_id, tmp_path / "out", strip_prefix=tmp_path)
        for p in sorted(x for x in src.rglob("*") if x.is_file()):
            assert (tmp_path / "out" / p.relative_to(tmp_path)).read_bytes() == p.read_bytes()

    def test_job_chain_filters_second_run(self, tmp_path):
        src = make_source(tmp_path)
        with DebarVault(tmp_path / "vault") as vault:
            run1 = vault.backup("docs", [src])
            mutate_tree(src, seed=3, new_files=1, delete_files=0)
            run2 = vault.backup("docs", [src])
            assert run2.transferred_bytes < run1.transferred_bytes
            assert run2.transferred_bytes < run2.logical_bytes

    def test_persistence_across_reopen(self, tmp_path):
        src = make_source(tmp_path)
        with DebarVault(tmp_path / "vault") as vault:
            run = vault.backup("docs", [src])
            stats1 = vault.stats()
        # Fresh process: reopen and restore from cold state.
        with DebarVault(tmp_path / "vault") as vault2:
            assert len(vault2.runs()) == 1
            assert vault2.stats()["index_entries"] == stats1["index_entries"]
            vault2.restore(run.run_id, tmp_path / "out2", strip_prefix=tmp_path)
        for p in sorted(x for x in src.rglob("*") if x.is_file()):
            assert (tmp_path / "out2" / p.relative_to(tmp_path)).read_bytes() == p.read_bytes()

    def test_dedup_across_reopen(self, tmp_path):
        src = make_source(tmp_path)
        with DebarVault(tmp_path / "vault") as vault:
            vault.backup("docs", [src])
            physical1 = vault.stats()["physical_bytes"]
        with DebarVault(tmp_path / "vault") as vault2:
            # Unmodified re-backup: the reopened index + job chain dedups it.
            run2 = vault2.backup("docs", [src])
            assert run2.transferred_bytes == 0
            assert vault2.stats()["physical_bytes"] == physical1

    def test_verify(self, tmp_path):
        src = make_source(tmp_path)
        with DebarVault(tmp_path / "vault") as vault:
            vault.backup("docs", [src])
            report = vault.verify()
            assert report["runs"] == 1
            assert report["fingerprints"] > 0

    def test_recover_index(self, tmp_path):
        src = make_source(tmp_path)
        with DebarVault(tmp_path / "vault") as vault:
            run = vault.backup("docs", [src])
            entries_before = vault.stats()["index_entries"]
        # Destroy the index file; reopen; rebuild from containers.
        (tmp_path / "vault" / "index.bin").unlink()
        with DebarVault(tmp_path / "vault") as vault2:
            assert vault2.stats()["index_entries"] == 0
            recovered = vault2.recover_index()
            assert recovered == entries_before
            assert vault2.verify()["fingerprints"] > 0
            vault2.restore(run.run_id, tmp_path / "out3", strip_prefix=tmp_path)

    def test_restore_unknown_run(self, tmp_path):
        with DebarVault(tmp_path / "vault") as vault:
            with pytest.raises(VaultError):
                vault.restore(42, tmp_path / "nowhere")

    def test_backup_requires_job_name(self, tmp_path):
        with DebarVault(tmp_path / "vault") as vault:
            with pytest.raises(VaultError):
                vault.backup("", [tmp_path])

    def test_stats_shape(self, tmp_path):
        src = make_source(tmp_path)
        with DebarVault(tmp_path / "vault") as vault:
            vault.backup("docs", [src])
            s = vault.stats()
        assert s["runs"] == 1
        assert s["compression_ratio"] >= 1.0
        assert s["containers"] >= 1
        assert 0 < s["index_utilization"] < 1


class TestCli:
    def test_backup_list_restore_verify_stats(self, tmp_path, capsys):
        src = make_source(tmp_path)
        vault = str(tmp_path / "vault")
        assert cli_main(["backup", "--vault", vault, "--job", "docs", str(src)]) == 0
        assert cli_main(["list", "--vault", vault]) == 0
        out = capsys.readouterr().out
        assert "docs" in out
        assert (
            cli_main(
                ["restore", "--vault", vault, "--run", "1",
                 "--dest", str(tmp_path / "cli-out"), "--strip-prefix", str(tmp_path)]
            )
            == 0
        )
        for p in sorted(x for x in src.rglob("*") if x.is_file()):
            restored = tmp_path / "cli-out" / p.relative_to(tmp_path)
            assert restored.read_bytes() == p.read_bytes()
        assert cli_main(["verify", "--vault", vault]) == 0
        assert cli_main(["stats", "--vault", vault]) == 0

    def test_cli_recover_index(self, tmp_path):
        src = make_source(tmp_path)
        vault = str(tmp_path / "vault")
        cli_main(["backup", "--vault", vault, "--job", "docs", str(src)])
        (tmp_path / "vault" / "index.bin").unlink()
        assert cli_main(["recover-index", "--vault", vault]) == 0
        assert cli_main(["verify", "--vault", vault]) == 0

    def test_cli_error_path(self, tmp_path, capsys):
        vault = str(tmp_path / "vault")
        rc = cli_main(["restore", "--vault", vault, "--run", "9", "--dest", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
