"""One fixed backup history whose on-disk images are pinned by digest.

``tests/test_crc.py`` compares the SHA-256 this history leaves over the
vault's containers, index and a mid-run chunk log against the values the
commit *before* chunks were checksummed once (3dca428) wrote for it: the
single-pass change must not move one byte on disk.  The module uses only
names both trees have, so the expectation is regenerated from a checkout
of that commit with::

    PYTHONPATH=<parent checkout>/src python tests/image_scenario.py

History (64 KiB containers, every source byte seeded): fresh backup of
``docs``; the same tree again (all duplicate); two files edited in
place; a second job ``mail`` holding a copy of a ``docs`` file plus its
own (cross-job duplicates); a backup of a grown tree killed between
dedup-1 and dedup-2 (``chunk.log`` digested as the crash left it), the
vault reopened (recovery replays the log into containers) and the backup
repeated; runs 1 and 2 forgotten; ``gc`` copying live chunks forward.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path


def _write(path: Path, seed: int, size: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(random.Random(seed).randbytes(size))


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def drive(vault_root: Path, src_root: Path) -> dict:
    """Run the history; returns the digests (and the counts that show the
    history exercised what it claims to)."""
    from repro.audit.faults import POST_SIL, InjectedCrash, inject
    from repro.system import DebarVault

    docs, mail = src_root / "docs", src_root / "mail"
    for i in range(4):
        _write(docs / f"d{i}.bin", seed=i, size=90_000 + 7_000 * i)
    vault = DebarVault(vault_root, container_bytes=64 * 1024)
    vault.backup("docs", [docs], timestamp=1000.0)
    vault.backup("docs", [docs], timestamp=2000.0)
    for name, at, seed in (("d1.bin", 40_000, 31), ("d3.bin", 9_000, 32)):
        blob = bytearray((docs / name).read_bytes())
        blob[at : at + 12_000] = random.Random(seed).randbytes(12_000)
        (docs / name).write_bytes(bytes(blob))
    vault.backup("docs", [docs], timestamp=3000.0)
    (mail / "copy.bin").parent.mkdir(parents=True)
    (mail / "copy.bin").write_bytes((docs / "d2.bin").read_bytes())
    _write(mail / "m0.bin", seed=40, size=70_000)
    vault.backup("mail", [mail], timestamp=4000.0)

    _write(docs / "d4.bin", seed=50, size=120_000)
    with inject(vault.tpds, POST_SIL):
        try:
            vault.backup("docs", [docs], timestamp=5000.0)
        except InjectedCrash:
            pass
        else:
            raise AssertionError("the backup was meant to die before dedup-2")
    chunk_log = _digest([vault_root / "chunk.log"])
    log_bytes = (vault_root / "chunk.log").stat().st_size
    vault.close()

    vault = DebarVault(vault_root)
    assert vault.recovery_report.replayed
    last = vault.backup("docs", [docs], timestamp=6000.0)
    vault.forget(1)
    vault.forget(2)
    report = vault.gc(rewrite_threshold=0.9)
    vault.verify(deep=True)
    vault.close()
    containers = sorted((vault_root / "containers").glob("*.ctr"))
    return {
        "chunk_log_mid_run": chunk_log,
        "chunk_log_bytes": log_bytes,
        "containers": _digest(containers),
        "container_count": len(containers),
        "containers_rewritten": report.containers_rewritten,
        "live_chunks_copied": report.live_chunks_copied,
        "index": _digest([vault_root / "index.bin", vault_root / "index.sb"]),
        "last_run_id": last.run_id,
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(drive(Path(tmp, "vault"), Path(tmp, "src")), sys.stdout, indent=1)
        sys.stdout.write("\n")
