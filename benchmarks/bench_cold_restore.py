"""Cold-restore benchmark: adjacent-GET batching vs one GET per chunk.

A fig08-style multi-generation file-tree workload is backed up, every
container is migrated to the (simulated) object-store cold tier, and the
latest run is restored twice through the vault's chunk reader — once
unprimed (no plan: one ranged GET per chunk, the naive baseline) and once
primed with the run's fingerprint sequence (adjacent-range batching).  The object store charges per-request
simulated time (~30 ms first byte + 100 MB/s), so the request count *is*
the cost model; the acceptance bar is that batching cuts cold-restore GET
requests by at least 2x.

Run directly (``python benchmarks/bench_cold_restore.py``) or via pytest.
Writes ``results/cold_restore.json``.
"""

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from harness import RESULTS_DIR, print_table, save_result, telemetry_session, volume_scale

from repro.backend.lifecycle import LifecycleManager, LifecyclePolicy
from repro.system import DebarVault
from repro.workloads import FileTreeGenerator, mutate_tree

_CONTAINER_BYTES = 256 * 1024
_GENERATIONS = 3


def _build_cold_vault(root, registry, scale):
    """Backup ``_GENERATIONS`` generations of an evolving tree, then
    migrate every container cold.  Returns (vault, last_run)."""
    src = root / "src"
    FileTreeGenerator(seed=8).generate(
        src,
        n_files=max(4, int(16 * scale)),
        n_dirs=3,
        min_size=16 * 1024,
        max_size=96 * 1024,
    )
    vault = DebarVault(
        root / "vault", container_bytes=_CONTAINER_BYTES, telemetry=registry
    )
    run = vault.backup("bench", [src])
    for gen in range(1, _GENERATIONS):
        mutate_tree(src, seed=gen)
        run = vault.backup("bench", [src])
    vault.enable_cold_tier()
    report = LifecycleManager(
        vault, LifecyclePolicy(min_age_runs=0, min_idle_runs=0)
    ).migrate()
    assert report.failed == [] and report.migrated > 0
    return vault, run


def _run_fingerprints(vault, run_id):
    return [fp for entry in vault.run_entries(run_id) for fp in entry.fingerprints]


def _restore_pass(vault, fps, plan):
    """Read the whole restore sequence through a reader primed with
    ``plan`` (or unprimed); returns the backend's request/simulated-seconds
    deltas for this pass."""
    backend = vault.repository.cold
    requests0 = backend.requests_issued
    seconds0 = backend.simulated_seconds
    reader = vault.reader(plan)
    restored = 0
    for fp in fps:
        restored += len(reader.read_chunk(fp))
    return {
        "chunks": len(fps),
        "bytes": restored,
        "get_requests": backend.requests_issued - requests0,
        "simulated_seconds": backend.simulated_seconds - seconds0,
    }


def test_cold_restore_batching(results_dir, tmp_path):
    scale = volume_scale()
    with telemetry_session() as (registry, tracer):
        vault, run = _build_cold_vault(tmp_path, registry, scale)
        fps = _run_fingerprints(vault, run.run_id)
        try:
            # Unbatched first: the batched pass then runs against a warm
            # metadata cache, which is the cache state both passes share —
            # neither pass re-downloads payload data fetched by the other
            # (each reader owns its look-ahead cache).
            unbatched = _restore_pass(vault, fps, plan=None)
            batched = _restore_pass(vault, fps, plan=fps)
        finally:
            vault.close()

    assert batched["bytes"] == unbatched["bytes"]
    speedup = unbatched["get_requests"] / max(1, batched["get_requests"])
    # The acceptance bar: batching must at least halve the GET count.
    assert speedup >= 2.0, (
        f"batching saved only {speedup:.2f}x GETs "
        f"({unbatched['get_requests']} -> {batched['get_requests']})"
    )

    print_table(
        "cold restore: planned batching vs per-chunk GETs",
        ["mode", "chunks", "GET requests", "simulated s"],
        [
            ("per-chunk", unbatched["chunks"], unbatched["get_requests"],
             f"{unbatched['simulated_seconds']:.3f}"),
            ("batched", batched["chunks"], batched["get_requests"],
             f"{batched['simulated_seconds']:.3f}"),
            ("ratio", "-", f"{speedup:.1f}x",
             f"{unbatched['simulated_seconds'] / max(1e-9, batched['simulated_seconds']):.1f}x"),
        ],
    )
    save_result(
        results_dir,
        "cold_restore",
        params={
            "scale": scale,
            "generations": _GENERATIONS,
            "container_bytes": _CONTAINER_BYTES,
            "restored_chunks": len(fps),
            "restored_bytes": batched["bytes"],
        },
        metrics={
            "unbatched_get_requests": unbatched["get_requests"],
            "batched_get_requests": batched["get_requests"],
            "get_request_speedup": speedup,
            "unbatched_simulated_seconds": unbatched["simulated_seconds"],
            "batched_simulated_seconds": batched["simulated_seconds"],
            "simulated_speedup": (
                unbatched["simulated_seconds"]
                / max(1e-9, batched["simulated_seconds"])
            ),
        },
        registry=registry,
        tracer=tracer,
    )


if __name__ == "__main__":
    scratch = RESULTS_DIR.parent / ".bench_cold_restore_scratch"
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    try:
        test_cold_restore_batching(RESULTS_DIR, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
