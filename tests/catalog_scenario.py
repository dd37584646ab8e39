"""One fixed history of catalog mutations, driven through the vault API.

``tests/test_catalog.py`` compares the ``catalog.json`` this history
leaves against ``tests/data/catalog_parent.json`` — the bytes the commit
*before* ``repro.system.catalog`` existed (b9f60cd) wrote for it.  The
module uses only names both trees have, so the expectation is regenerated
from a checkout of that commit with::

    PYTHONPATH=<parent checkout>/src python tests/catalog_scenario.py \\
        > tests/data/catalog_parent.json

History: backup x3 over two jobs, forget, backup (the forgotten id is not
reused), cold tier enabled, one file marked degraded, close, reopen (an
open rewrites the file).  The tiny index scales during the backups.
Source paths, sizes, modes, mtimes and run timestamps are all pinned;
the source root is spelled ``/SRC`` in the normalised text.
"""

import os
import random
import sys
import tempfile
from pathlib import Path

SRC_PLACEHOLDER = "/SRC"


def _write(path: Path, seed: int, size: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(random.Random(seed).randbytes(size))
    path.chmod(0o644)
    os.utime(path, (1_000_000_000 + seed, 1_000_000_000 + seed))


def drive(vault_root: Path, src_root: Path) -> str:
    """Run the history; returns the normalised catalog text."""
    from repro.durability.scrubber import Scrubber, ScrubReport
    from repro.system import DebarVault

    docs, mail = src_root / "docs", src_root / "mail"
    for i in range(3):
        _write(docs / f"d{i}.bin", seed=i, size=56_000 + 4_000 * i)
        _write(mail / f"m{i}.bin", seed=10 + i, size=50_000 + 5_000 * i)
    vault = DebarVault(
        vault_root, index_n_bits=1, index_bucket_bytes=512, container_bytes=64 * 1024
    )
    vault.backup("docs", [docs], timestamp=1000.0)
    vault.backup("mail", [mail], timestamp=2000.0)
    _write(docs / "d1.bin", seed=21, size=41_000)
    vault.backup("docs", [docs], timestamp=3000.0)
    vault.forget(1)
    _write(docs / "sub" / "d3.bin", seed=22, size=33_000)
    last = vault.backup("docs", [docs], timestamp=4000.0)
    assert last.run_id == 4
    assert vault.tpds.index.n_bits > 1, "the history must scale the index"
    vault.enable_cold_tier()
    Scrubber(vault)._mark_degraded(ScrubReport(), last.files[0].fingerprints[0])
    vault.close()
    DebarVault(vault_root).close()
    text = (vault_root / "catalog.json").read_text()
    return text.replace(str(src_root), SRC_PLACEHOLDER)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(drive(Path(tmp, "vault"), Path(tmp, "src")))
