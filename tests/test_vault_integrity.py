"""Tests for deep verification (corruption detection) and run diffing."""

import pytest

from repro.durability.errors import CorruptionError
from repro.system import DebarVault, VaultError
from repro.workloads import FileTreeGenerator, mutate_tree


def fresh_vault(tmp_path, seed=21):
    src = tmp_path / "src"
    FileTreeGenerator(seed=seed).generate(
        src, n_files=5, n_dirs=2, min_size=8 * 1024, max_size=32 * 1024
    )
    vault = DebarVault(tmp_path / "vault", container_bytes=64 * 1024)
    return vault, src


class TestDeepVerify:
    def test_clean_vault_passes(self, tmp_path):
        vault, src = fresh_vault(tmp_path)
        vault.backup("docs", [src])
        report = vault.verify(deep=True)
        assert report["payloads_verified"] > 0
        assert report["fingerprints"] >= report["payloads_verified"]

    def test_detects_flipped_bit_in_container(self, tmp_path):
        vault, src = fresh_vault(tmp_path)
        vault.backup("docs", [src])
        vault.close()
        # Corrupt one byte deep inside a container's data section.
        victim = sorted((tmp_path / "vault" / "containers").glob("*.ctr"))[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with DebarVault(tmp_path / "vault") as reopened:
            reopened.verify(deep=False)  # shallow check cannot see it
            with pytest.raises(CorruptionError, match="corrupt|does not hold") as exc:
                reopened.verify(deep=True)
            # The typed error pinpoints the damage for scrub/repair tooling.
            assert exc.value.container_id is not None
            assert exc.value.fingerprint is not None

    def test_shallow_detects_missing_index_entry(self, tmp_path):
        vault, src = fresh_vault(tmp_path)
        run = vault.backup("docs", [src])
        fp = run.files[0].fingerprints[0]
        vault.tpds.index.delete(fp)
        with pytest.raises(CorruptionError, match="missing from index") as exc:
            vault.verify()
        assert exc.value.artifact == "index"
        assert exc.value.fingerprint == fp

    def test_deep_reports_index_entry_pointing_at_a_missing_container(self, tmp_path):
        # Regression: a dangling container id (a rotted index entry that
        # slipped past a damaged bucket trailer) surfaced as an uncaught
        # KeyError traceback instead of typed corruption (CLI exit 3).
        vault, src = fresh_vault(tmp_path)
        run = vault.backup("docs", [src])
        fp = run.files[0].fingerprints[0]
        assert vault.tpds.index.update(fp, 255)
        with pytest.raises(CorruptionError, match="does not hold it") as exc:
            vault.verify(deep=True)
        assert exc.value.artifact == "index"
        assert exc.value.container_id == 255
        assert exc.value.fingerprint == fp


class TestDiff:
    def test_diff_categories(self, tmp_path):
        vault, src = fresh_vault(tmp_path)
        run1 = vault.backup("docs", [src])
        mutate_tree(src, seed=5, edit_fraction=0.4, new_files=1, delete_files=1)
        run2 = vault.backup("docs", [src])
        diff = vault.diff(run1.run_id, run2.run_id)
        assert len(diff["added"]) == 1
        assert len(diff["removed"]) == 1
        assert diff["changed"]  # at least one edited file
        # Every surviving path is classified exactly once.
        all_paths = set(diff["changed"]) | set(diff["unchanged"])
        assert not (set(diff["added"]) & all_paths)
        assert not (set(diff["removed"]) & all_paths)

    def test_diff_identical_runs(self, tmp_path):
        vault, src = fresh_vault(tmp_path)
        run1 = vault.backup("docs", [src])
        run2 = vault.backup("docs", [src])
        diff = vault.diff(run1.run_id, run2.run_id)
        assert diff["added"] == diff["removed"] == diff["changed"] == []
        assert len(diff["unchanged"]) == len(run1.files)

    def test_diff_unknown_run(self, tmp_path):
        vault, src = fresh_vault(tmp_path)
        run1 = vault.backup("docs", [src])
        with pytest.raises(VaultError):
            vault.diff(run1.run_id, 99)
