"""Ablation: chunking algorithm (CDC vs fixed-size vs TTTD).

Two questions, per Section 3.2's argument for CDC:

1. **Dedup quality under edits** — chunk a buffer, prepend a few bytes and
   edit the middle, re-chunk: what fraction of chunks survive?  Fixed-size
   blocking collapses; CDC and TTTD survive.
2. **Chunking speed** — real wall-clock MiB/s of each chunker's
   ``cut_points`` at the paper's defaults (this is actual Python+NumPy
   performance, not simulated time): on a 2 MiB buffer, where the per-byte
   kernel is the cost, and on a 4 KiB buffer, where the per-call set-up is
   (a small-file backup calls the chunker once per file).  The byte-wise
   rolling reference is the yardstick both are measured against.

Both land in ``results/ablation_chunking_quality.json``.
"""

import json

import numpy as np
import pytest
from conftest import print_table, save_series

from repro.chunking import ContentDefinedChunker, FixedSizeChunker, TTTDChunker
from repro.util import MB


def _payload(n=512 * 1024, seed=3):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


def _edit(data: bytes) -> bytes:
    edited = bytearray(data)
    edited[:0] = b"PREPENDED HEADER"
    mid = len(edited) // 2
    edited[mid : mid + 64] = bytes(64)
    return bytes(edited)


def _record(results_dir, section: str, values: dict) -> None:
    """Merge one bench's numbers into the shared result file."""
    path = results_dir / "ablation_chunking_quality.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault(section, {}).update(values)
    save_series(results_dir, "ablation_chunking_quality", doc)


def _survival(chunker, data, edited) -> float:
    before = {c.fingerprint for c in chunker.chunks(data)}
    after = {c.fingerprint for c in chunker.chunks(edited)}
    return len(before & after) / len(before)


def bench_ablation_chunking_quality(benchmark, results_dir):
    data = _payload()
    edited = _edit(data)
    chunkers = {
        "cdc": ContentDefinedChunker(avg_bits=10, min_size=256, max_size=4096),
        "tttd": TTTDChunker(avg_bits=10, min_size=256, max_size=4096),
        "fixed": FixedSizeChunker(1024),
    }

    def run():
        return {name: _survival(c, data, edited) for name, c in chunkers.items()}

    survival = benchmark.pedantic(run, rounds=1, iterations=1)
    assert survival["cdc"] > 0.75
    assert survival["tttd"] > 0.75
    assert survival["fixed"] < 0.10  # the fixed-size pathology

    print_table(
        "Ablation — chunk survival after prepend+edit",
        ["chunker", "surviving chunks"],
        [(name, f"{frac:.1%}") for name, frac in survival.items()],
    )
    _record(results_dir, "survival", survival)


SPEED_CASES = {
    "cdc": (ContentDefinedChunker, "cut_points"),
    "tttd": (TTTDChunker, "cut_points"),
    "fixed": (FixedSizeChunker, "cut_points"),
    "reference": (ContentDefinedChunker, "cut_points_streaming"),
}
SPEED_SIZES = {"2MiB": 2 * MB, "4KiB": 4 * 1024}


@pytest.mark.parametrize("size", SPEED_SIZES)
@pytest.mark.parametrize("name", SPEED_CASES)
def bench_chunking_speed(benchmark, results_dir, name, size):
    """Real wall-clock throughput of one cut-point pass at the defaults."""
    cls, method = SPEED_CASES[name]
    cut_points = getattr(cls(), method)
    data = _payload(SPEED_SIZES[size], seed=5)
    if name == "reference" and size == "2MiB":
        # ~1 s a round: a few rounds say all there is to say.
        result = benchmark.pedantic(cut_points, args=(data,), rounds=3, iterations=1)
    else:
        result = benchmark(cut_points, data)
    assert result[-1] == len(data)
    if benchmark.stats:  # absent under --benchmark-disable
        mibps = len(data) / MB / benchmark.stats.stats.median
        _record(results_dir, f"mibps_{size}", {name: round(mibps, 2)})
