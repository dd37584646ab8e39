"""The LPC is the only place an open vault keeps containers in memory.

The repository underneath is a plain store, so an open handle's memory
does not grow with the data it has stored, integrity sweeps read the
disk rather than a copy of it, and every path that rewrites an image
drops the LPC's copy.
"""

import random
import tracemalloc

import pytest

from repro.durability.errors import CorruptionError
from repro.durability.scrubber import Scrubber
from repro.system import DebarVault
from tests.test_scrub import flip_container_data_byte, read_tree

MIB = 1 << 20


def write_random(root, total, seed, n_files=4):
    root.mkdir(parents=True)
    rng = random.Random(seed)
    for i in range(n_files):
        (root / f"f{i}.bin").write_bytes(rng.randbytes(total // n_files))
    return root


def count_fetches(monkeypatch, vault):
    fetched = []
    fetch = vault.repository.fetch

    def counted(cid):
        fetched.append(cid)
        return fetch(cid)

    monkeypatch.setattr(vault.repository, "fetch", counted)
    return fetched


class TestSweepsReadTheDisk:
    def test_deep_verify_sees_rot_after_the_same_handle_stored_it(self, tmp_path):
        vault = DebarVault(tmp_path / "vault", container_bytes=64 * 1024)
        vault.backup("docs", [write_random(tmp_path / "src", 256 * 1024, 1)])
        vault.verify(deep=True)
        flip_container_data_byte(vault.root)
        with pytest.raises(CorruptionError):
            vault.verify(deep=True)
        assert not vault.audit(deep=True).ok

    def test_each_referenced_container_is_fetched_at_most_once(
        self, tmp_path, monkeypatch
    ):
        src = write_random(tmp_path / "src", 384 * 1024, 2)
        vault = DebarVault(tmp_path / "vault", container_bytes=64 * 1024)
        vault.backup("docs", [src])
        (src / "f0.bin").write_bytes(random.Random(3).randbytes(96 * 1024))
        vault.backup("docs", [src])
        referenced = {
            vault.tpds.index.lookup(fp)
            for _, fps in vault.catalog.iter_run_fingerprints()
            for fp in fps
        }
        assert len(referenced) > 2
        fetched = count_fetches(monkeypatch, vault)
        counters = vault.verify(deep=True)
        assert counters["payloads_verified"] > len(referenced)
        assert sorted(fetched) == sorted(referenced)
        fetched.clear()
        assert vault.audit(deep=True).ok
        assert len(fetched) <= len(referenced)
        assert set(fetched) == referenced


class TestMemory:
    @staticmethod
    def held_after_backup(tmp_path, name, total):
        src = write_random(tmp_path / f"{name}-src", total, seed=total)
        vault = DebarVault(tmp_path / name)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            vault.backup("docs", [src])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        vault.close()
        return held

    def test_memory_held_after_a_backup_does_not_grow_with_its_size(self, tmp_path):
        small = self.held_after_backup(tmp_path, "small", 4 * MIB)
        large = self.held_after_backup(tmp_path, "large", 16 * MIB)
        assert large - small < 2 * MIB, (small, large)


class TestScrubRepairDropsTheLpcCopy:
    def test_restore_after_repair_in_the_same_handle(self, tmp_path):
        src = write_random(tmp_path / "src", 256 * 1024, 4)
        before = read_tree(src)
        vault = DebarVault(tmp_path / "vault", container_bytes=64 * 1024)
        run = vault.backup("docs", [src])
        cid, fp = flip_container_data_byte(vault.root)
        # Warm the LPC with the rotted container: restores do not verify,
        # so the damage shows in the output.
        vault.restore(run.run_id, tmp_path / "warm", strip_prefix=tmp_path)
        assert cid in vault.chunk_store.lpc
        assert read_tree(tmp_path / "warm" / "src") != before
        replica = DebarVault(tmp_path / "replica", container_bytes=64 * 1024)
        replica.backup("docs", [src])
        report = Scrubber(vault, peers=[("replica", replica.chunk_store)]).run(
            repair=True
        )
        assert report.repaired == 1 and report.unrepaired == 0
        vault.restore(run.run_id, tmp_path / "out", strip_prefix=tmp_path)
        assert read_tree(tmp_path / "out" / "src") == before
        replica.close()
        vault.close()
