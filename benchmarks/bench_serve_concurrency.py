"""Serve-daemon concurrency scaling: many simultaneous backup streams.

The async rewrite's acceptance bench (DESIGN.md §12): one
``repro serve`` daemon takes 10 → 200 *simultaneous* remote backup
streams, each a separate client session on its own connection.  The
multiplexed event loop must keep per-stream cost flat — wall clock over
N streams at N=200 stays within 2x of N=10.

Also probed here, because they only show up under load:

- restores stay byte-identical after a 200-way concurrent write storm;
- ``shutdown_gracefully`` under live traffic drains without hitting its
  timeout (the drain-flag ordering fix).
"""

import random
import threading
import time
from pathlib import Path

from harness import save_result, telemetry_session
from conftest import print_table, volume_scale

from repro.net.client import RemoteBackupClient, RetryPolicy
from repro.net.client import NetClient
from repro.net import messages as m
from repro.net.server import serve_vault
from repro.system.vault import DebarVault

#: Simultaneous stream counts (the acceptance sweep).
ASYNC_STREAMS = [10, 50, 100, 200]

#: Per-stream dataset volume at scale 1.0 (files x bytes each).
N_FILES = 2
FILE_BYTES = 24 * 1024

#: Generous retry budget: with hundreds of streams an admission shed or
#: a slow commit is expected, not an error.
BENCH_RETRY = RetryPolicy(
    max_attempts=10, base_delay=0.05, max_delay=0.8, timeout=30.0
)


def _write_stream_datasets(root: Path, n_streams: int, scale: float):
    datasets = []
    file_bytes = max(4096, int(FILE_BYTES * scale))
    for i in range(n_streams):
        rng = random.Random(9000 + i)
        data = root / f"stream-{i:03d}"
        data.mkdir()
        for j in range(N_FILES):
            # Unique head per stream, repeated tail: every stream ships
            # real bytes and dedup still has intra-file work.
            head = rng.randbytes(file_bytes // 2)
            (data / f"f{j}.bin").write_bytes(head + head[: file_bytes // 2])
        datasets.append(data)
    return datasets


def _run_streams(server, datasets, verify_sample):
    """N concurrent backup streams against one daemon; returns the wall
    time of the storm and the failures (must be none)."""
    host, port = server.server_address
    barrier = threading.Barrier(len(datasets) + 1)
    failures = []
    runs = [None] * len(datasets)

    def one_stream(i, data):
        try:
            with RemoteBackupClient(
                host, port, client_name=f"s{i}", retry=BENCH_RETRY
            ) as rc:
                barrier.wait()
                runs[i] = rc.backup(f"job-{i}", [str(data)])
        except Exception as exc:  # noqa: BLE001 - reported as bench failure
            failures.append((i, repr(exc)))
            barrier.abort()

    threads = [
        threading.Thread(target=one_stream, args=(i, d), daemon=True)
        for i, d in enumerate(datasets)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join(300.0)
    wall = time.perf_counter() - t0
    assert not failures, failures[:5]

    # Byte-identical restores for a sample of the streams that just raced.
    with RemoteBackupClient(host, port, retry=BENCH_RETRY) as rc:
        for i in verify_sample:
            dest = datasets[i].parent / f"restore-{i:03d}"
            rc.restore(runs[i].run_id, dest)
            for src in datasets[i].iterdir():
                restored = next(dest.rglob(src.name)).read_bytes()
                assert restored == src.read_bytes(), (
                    f"stream {i}: {src.name} corrupted under concurrency"
                )
    return wall


def _measure_core(tmp: Path, registry, n_streams, scale):
    root = tmp / f"async-{n_streams}"
    root.mkdir()
    vault = DebarVault(root / "vault")
    server = serve_vault(vault, registry=registry, max_inflight=256)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        datasets = _write_stream_datasets(root, n_streams, scale)
        sample = list(range(n_streams))[:: max(1, n_streams // 5)]
        wall = _run_streams(server, datasets, verify_sample=sample)
    finally:
        server.shutdown()
        server.server_close()
        vault.close()
    return {
        "core": "async",
        "streams": n_streams,
        "wall_seconds": wall,
        "per_stream_seconds": wall / n_streams,
    }


def _probe_drain_under_load(tmp: Path, registry):
    """Graceful drain while ping traffic hammers the daemon: must finish
    well inside its timeout (the drain-flag ordering fix)."""
    vault = DebarVault(tmp / "drain-vault")
    server = serve_vault(vault, registry=registry)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    stop = threading.Event()

    def hammer():
        net = NetClient("127.0.0.1", server.port, retry=BENCH_RETRY)
        try:
            while not stop.is_set():
                net.call(m.PING, b"x")
        except Exception:
            pass  # refused once the drain begins
        finally:
            net.close()

    hammers = [
        threading.Thread(target=hammer, daemon=True) for _ in range(8)
    ]
    for t in hammers:
        t.start()
    time.sleep(0.3)  # let the load establish
    t0 = time.perf_counter()
    try:
        drained = server.shutdown_gracefully(timeout=30.0)
        drain_seconds = time.perf_counter() - t0
    finally:
        stop.set()
        for t in hammers:
            t.join(5.0)
        vault.close()
    assert drained is True, "drain under load fell back to its timeout"
    return drain_seconds


def test_serve_concurrency(results_dir, tmp_path):
    scale = volume_scale()
    rows = []
    with telemetry_session() as (registry, tracer):
        for n in ASYNC_STREAMS:
            rows.append(_measure_core(tmp_path, registry, n, scale))
        drain_seconds = _probe_drain_under_load(tmp_path, registry)

    by_async = {r["streams"]: r for r in rows}
    flatness = (
        by_async[ASYNC_STREAMS[-1]]["per_stream_seconds"]
        / by_async[ASYNC_STREAMS[0]]["per_stream_seconds"]
    )
    # The acceptance gate: per-stream cost flat within 2x from 10 -> 200
    # simultaneous streams on the async core.
    assert flatness <= 2.0, (
        f"per-stream cost grew {flatness:.2f}x from "
        f"{ASYNC_STREAMS[0]} to {ASYNC_STREAMS[-1]} streams"
    )
    assert drain_seconds < 30.0

    print_table(
        "serve concurrency scaling",
        ["core", "streams", "wall s", "per-stream s"],
        [
            (r["core"], r["streams"], f"{r['wall_seconds']:.3f}",
             f"{r['per_stream_seconds']:.4f}")
            for r in rows
        ],
    )
    print(f"\nasync per-stream flatness 10->200: {flatness:.2f}x "
          f"(gate <= 2.0); drain under load: {drain_seconds:.2f}s")

    metrics_rows = {row["name"]: row for row in registry.snapshot_metrics()}
    busy = sum(
        s["value"]
        for s in metrics_rows.get("net.busy_rejections", {}).get("samples", [])
    )
    # ~500 traced backup/restore ops produce megabytes of span trees;
    # the committed result only needs the counters and the series above.
    tracer.reset()
    save_result(
        results_dir,
        "serve_concurrency",
        params={
            "scale": scale,
            "async_streams": ASYNC_STREAMS,
            "files_per_stream": N_FILES,
            "file_bytes": max(4096, int(FILE_BYTES * scale)),
            "max_inflight": 256,
        },
        metrics={
            "series": rows,
            "per_stream_flatness_10_to_200": flatness,
            "drain_under_load_seconds": drain_seconds,
            "busy_rejections": busy,
        },
        registry=registry,
        tracer=tracer,
    )
