"""Micro-benchmarks of the core data structures (real wall time).

These are the only benches measuring *Python* performance rather than
simulated device time: the constant factors a user of this library
actually pays.  No paper counterpart; tracked to catch regressions.
"""

import numpy as np
import pytest

from repro.baselines import BloomFilter
from repro.core.disk_index import DiskIndex, pack_bucket, unpack_bucket
from repro.core.fingerprint import SyntheticFingerprints, fingerprint
from repro.core.preliminary_filter import PreliminaryFilter
from repro.core.sil import SequentialIndexLookup
from repro.core.siu import SequentialIndexUpdate
from repro.chunking.rabin import RABIN_DEGREE, window_fingerprints
from repro.durability.crc import crc32c, crc32c_combine


def bench_sha1_fingerprinting(benchmark):
    data = np.random.default_rng(0).integers(0, 256, 8192, dtype=np.uint8).tobytes()
    benchmark(fingerprint, data)


@pytest.mark.parametrize("bits", [RABIN_DEGREE, 13], ids=["full-width", "anchor-kernel"])
def bench_rabin_window_pass(benchmark, bits):
    """One kernel, two widths: every fingerprint bit (the tested reference)
    and only the 13 the paper's anchor test reads (what a backup runs)."""
    data = np.random.default_rng(1).integers(0, 256, 256 * 1024, dtype=np.uint8).tobytes()
    benchmark(window_fingerprints, data, bits=bits)


@pytest.mark.parametrize("size", [8 << 10, 64 << 10], ids=["8KiB", "64KiB"])
def bench_crc32c(benchmark, size):
    """The record checksum over one chunk-sized payload: the per-byte cost
    every new chunk pays once on the write side and scrub pays per read."""
    data = np.random.default_rng(2).integers(0, 256, size, dtype=np.uint8).tobytes()
    benchmark(crc32c, data)
    if benchmark.stats:  # absent under --benchmark-disable
        mibps = size / (1 << 20) / benchmark.stats.stats.median
        benchmark.extra_info["mib_per_s"] = round(mibps, 2)


def bench_crc32c_combine(benchmark):
    """Joining two known CRCs across an 11 KB payload: what replaces the
    second pass over a new chunk (length-independent to within log2 n)."""
    benchmark(crc32c_combine, 0x1234ABCD, 0x0BADF00D, 11_000)
    if benchmark.stats:
        benchmark.extra_info["us"] = round(benchmark.stats.stats.median * 1e6, 1)


def bench_index_insert(benchmark):
    fps = SyntheticFingerprints(0).fresh(50_000)
    counter = [0]

    def insert():
        # A fresh index every ~2000 inserts keeps utilization realistic.
        i = counter[0]
        if i % 2000 == 0:
            bench_index_insert.index = DiskIndex(10, bucket_bytes=512)
        bench_index_insert.index.insert(fps[i % len(fps)], i)
        counter[0] += 1

    benchmark(insert)


def bench_index_lookup(benchmark):
    index = DiskIndex(10, bucket_bytes=512)
    fps = SyntheticFingerprints(1).fresh(2000)
    for i, fp in enumerate(fps):
        index.insert(fp, i)
    it = [0]

    def lookup():
        fp = fps[it[0] % len(fps)]
        it[0] += 1
        return index.lookup(fp)

    benchmark(lookup)


def bench_bucket_serialization(benchmark):
    entries = [(fp, i) for i, fp in enumerate(SyntheticFingerprints(2).fresh(20))]

    def roundtrip():
        return unpack_bucket(pack_bucket(entries, 512))

    benchmark(roundtrip)


def bench_bloom_add_and_query(benchmark):
    bloom = BloomFilter(1 << 20, k_hashes=4)
    fps = SyntheticFingerprints(3).fresh(5000)
    bloom.add_many(fps[:2500])
    it = [0]

    def op():
        fp = fps[it[0] % len(fps)]
        it[0] += 1
        return fp in bloom

    benchmark(op)


def bench_preliminary_filter_check(benchmark):
    prefilter = PreliminaryFilter(1 << 16)
    fps = SyntheticFingerprints(4).fresh(10_000)
    prefilter.preload(fps[:5000])
    it = [0]

    def check():
        fp = fps[it[0] % len(fps)]
        it[0] += 1
        return prefilter.check(fp)

    benchmark(check)


def bench_sil_sweep_real_time(benchmark):
    """Wall time of a real 10k-fingerprint SIL over a 2^12-bucket index."""
    index = DiskIndex(12, bucket_bytes=512)
    resident = SyntheticFingerprints(5).fresh(5000)
    for i, fp in enumerate(resident):
        index.insert(fp, i)
    probe = resident[:5000] + SyntheticFingerprints(6).fresh(5000)

    def sweep():
        return SequentialIndexLookup(index).run(probe)

    result = benchmark(sweep)
    assert result.duplicate_fingerprints == 5000


def bench_siu_sweep_real_time(benchmark):
    """Wall time of a real 10k-entry SIU into a 2^12-bucket index."""
    gen = SyntheticFingerprints(7)

    def sweep():
        index = DiskIndex(12, bucket_bytes=512)
        entries = {fp: 1 for fp in gen.range(0, 10_000)}
        return SequentialIndexUpdate(index).run(entries)

    result = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert result.fingerprints_registered == 10_000
