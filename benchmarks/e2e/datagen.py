"""Seeded input generation: the program under test only ever sees these files.

Every byte comes from ``random.Random`` streams derived from ``--seed``, so
one seed gives one input set (and one ``stored_bytes_per_logical_byte``).
Random bytes are used throughout because CDC collapses repeating patterns
and nothing here should compress.  Modification times are fixed integers so
the catalog a seed produces does not depend on when it was generated.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import shutil
from pathlib import Path
from typing import List

MIB = 1 << 20
KIB = 1 << 10

#: Base mtime; generation ``g`` stamps ``MTIME0 + g``.
MTIME0 = 1_700_000_000

#: ``local-bulk`` / ``remote-bulk`` file sizes at scale 1 (16 MiB in 7 files).
BULK_SIZES = (8 * MIB, 2 * MIB, 2 * MIB, MIB, MIB, MIB, MIB)
#: ``cli-smallfiles`` at scale 1: 3000 log-uniform small files (1-16 KiB before
#: they are fitted to the 12 MiB total) in 16 directories.
SMALL_FILES, SMALL_DIRS, SMALL_MIN, SMALL_MAX, SMALL_TOTAL = 3000, 16, KIB, 16 * KIB, 12 * MIB
#: ``routed-tenants`` at scale 1: each tenant owns 4 files of 64 KiB.
TENANT_FILES, TENANT_FILE_BYTES = 4, 64 * KIB


def stream(seed: int, *labels: object) -> random.Random:
    """An independent random stream per (seed, purpose)."""
    return random.Random("/".join(str(x) for x in (seed, *labels)))


def _put(path: Path, data: bytes, gen: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    os.utime(path, (MTIME0 + gen, MTIME0 + gen))


def files_of(root: Path) -> List[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in files_of(root))


def tree_digest(root: Path) -> str:
    """SHA-256 over (relative path, content) of every file, in path order."""
    h = hashlib.sha256()
    for p in files_of(root):
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


# -- fresh trees ------------------------------------------------------------------
def bulk_tree(root: Path, rng: random.Random, scale: float) -> None:
    for i, size in enumerate(BULK_SIZES):
        _put(root / f"f{i}.bin", rng.randbytes(max(KIB, int(size * scale))), 0)


def _small_size(rng: random.Random) -> int:
    return int(math.exp(rng.uniform(math.log(SMALL_MIN), math.log(SMALL_MAX))))


def small_tree(root: Path, rng: random.Random, scale: float) -> None:
    """``scale`` scales the file count, not the sizes: the per-file fixed cost
    is what the workload is for.  Sizes are fitted to a fixed total, so that
    every seed fills the same number of (1 MiB, fully materialised)
    containers and the stored-bytes ratio does not jump with the seed."""
    count = max(SMALL_DIRS, int(SMALL_FILES * scale))
    sizes = [_small_size(rng) for _ in range(count)]
    total = SMALL_TOTAL * count // SMALL_FILES
    sizes = [max(1, size * total // sum(sizes)) for size in sizes]
    sizes[-1] += total - sum(sizes)
    for i, size in enumerate(sizes):
        _put(root / f"d{i % SMALL_DIRS:02d}" / f"f{i:05d}.bin", rng.randbytes(size), 0)


def tenant_tree(root: Path, rng: random.Random, scale: float) -> None:
    for i in range(TENANT_FILES):
        _put(root / f"f{i}.bin", rng.randbytes(max(KIB, int(TENANT_FILE_BYTES * scale))), 0)


# -- generations ------------------------------------------------------------------
def edit_bytes(root: Path, rng: random.Random, gen: int, scale: float) -> None:
    """Edit 1% of every file's bytes in place: 16 KiB (scaled)
    overwrites, plus one insertion of at most 512 B so that every later
    chunk boundary shifts and CDC has to resynchronise."""
    block = max(512, int(16 * KIB * scale))
    for path in files_of(root):
        data = bytearray(path.read_bytes())
        for _ in range(max(1, round(len(data) * 0.01 / block))):
            at = rng.randrange(max(1, len(data) - block))
            data[at:at + block] = rng.randbytes(min(block, len(data) - at))
        at = rng.randrange(len(data))
        data[at:at] = rng.randbytes(rng.randint(1, 512))
        _put(path, bytes(data), gen)


def edit_block(root: Path, rng: random.Random, gen: int, scale: float) -> None:
    """Tenant churn: one 4 KiB (scaled) overwrite in one file."""
    path = rng.choice(files_of(root))
    data = bytearray(path.read_bytes())
    block = max(256, int(4 * KIB * scale))
    at = rng.randrange(max(1, len(data) - block))
    data[at:at + block] = rng.randbytes(min(block, len(data) - at))
    _put(path, bytes(data), gen)


def edit_files(root: Path, rng: random.Random, gen: int) -> None:
    """Small-file churn: 1% of files rewritten, 1/300 added, 1/300 deleted."""
    files = files_of(root)
    churn = max(1, len(files) // 300)
    for path in rng.sample(files, max(2, len(files) // 100)):
        _put(path, rng.randbytes(path.stat().st_size), gen)
    for path in rng.sample(files, churn):
        path.unlink()
    for i in range(churn):
        _put(root / f"d{rng.randrange(SMALL_DIRS):02d}" / f"g{gen:02d}n{i:04d}.bin",
             rng.randbytes(_small_size(rng)), gen)


def near_copy(src: Path, dst: Path, rng: random.Random, whole_files: bool) -> None:
    """A copy of ``src`` that is ~90% identical: the other job's filter knows
    none of it, the index nearly all.  Large files differ in one contiguous
    tenth each; trees of one-chunk files have a tenth of the files rewritten
    instead (an edit inside a one-chunk file changes all of it)."""
    shutil.rmtree(dst, ignore_errors=True)
    files = files_of(src)
    rewritten = set(rng.sample(files, max(1, len(files) // 10))) if whole_files else ()
    for path in files:
        data = bytearray(path.read_bytes())
        if whole_files:
            if path in rewritten:
                data = rng.randbytes(len(data))
        else:
            span = max(1, len(data) // 10)
            at = rng.randrange(max(1, len(data) - span))
            data[at:at + span] = rng.randbytes(span)
        _put(dst / path.relative_to(src), bytes(data), 0)
