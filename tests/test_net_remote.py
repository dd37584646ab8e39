"""Loopback integration tests: RemoteBackupClient against a live daemon.

One in-process :class:`~repro.net.server.VaultProtocolServer` hosts a real
vault on an ephemeral loopback port; real frames cross a real socket.
Covers the PR's acceptance path — remote backup -> dedup-2 -> remote
restore -> byte-compare against an in-process backup of the same dataset
-> ``repro audit`` — plus frame-level fault injection (drop, truncate,
duplicate) recovering via retry with no duplicate chunk-log entries, and
the ``net.*`` telemetry the client publishes.
"""

import random
import threading

import pytest

from repro.net.client import (
    NetClient,
    RemoteBackupClient,
    RemoteError,
    RemoteUnavailable,
    RetryPolicy,
)
from repro.net import messages as m
from repro.net.faults import FRAME_FAULTS, inject_frames
from repro.net.server import serve_vault
from repro.system.vault import DebarVault
from repro.telemetry.registry import MetricsRegistry

#: Snappy retries so fault tests don't sleep through real backoff.
FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05, timeout=2.0)


def write_dataset(root, n_files=5, seed=7):
    rng = random.Random(seed)
    data = root / "data"
    data.mkdir(exist_ok=True)
    for i in range(n_files):
        # Half repeated content so dedup has something to find.
        blob = rng.randbytes(3000)
        (data / f"f{i}.bin").write_bytes(blob + blob + bytes([i]) * 500)
    return data


@pytest.fixture(params=["async"])
def daemon(tmp_path):
    # Every scenario in this module used to run once per serving core.  One
    # core remains; the single param keeps the test names (``...[async]``).
    vault = DebarVault(tmp_path / "vault")
    server = serve_vault(vault)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        yield vault, host, port
    finally:
        server.shutdown()
        server.server_close()
        vault.close()


@pytest.fixture()
def client(daemon):
    _, host, port = daemon
    with RemoteBackupClient(host, port, retry=FAST_RETRY) as rc:
        yield rc


def restored_bytes(dest, name):
    return next(p for p in dest.rglob(name)).read_bytes()


class TestRemoteBackupRestore:
    def test_backup_restores_byte_identical(self, daemon, client, tmp_path):
        data = write_dataset(tmp_path)
        run = client.backup("homedirs", [str(data)])
        assert run.files == 5
        assert run.logical_bytes == sum(
            p.stat().st_size for p in data.iterdir()
        )
        dest = tmp_path / "restore"
        paths = client.restore(run.run_id, dest)
        assert len(paths) == 5
        for i in range(5):
            assert restored_bytes(dest, f"f{i}.bin") == (
                data / f"f{i}.bin"
            ).read_bytes()

    def test_remote_matches_in_process_backup(self, daemon, client, tmp_path):
        # The same dataset through the wire and through the in-process
        # vault API must store identical content and restore identically.
        vault, _, _ = daemon
        data = write_dataset(tmp_path)
        remote_run = client.backup("wire", [str(data)])
        local_vault = DebarVault(tmp_path / "local-vault")
        local_run = local_vault.backup("wire", [str(data)])
        assert remote_run.logical_bytes == local_run.logical_bytes
        assert remote_run.transferred_bytes == local_run.transferred_bytes

        remote_dest, local_dest = tmp_path / "r", tmp_path / "l"
        client.restore(remote_run.run_id, remote_dest)
        local_vault.restore(local_run.run_id, local_dest)
        for i in range(5):
            name = f"f{i}.bin"
            assert restored_bytes(remote_dest, name) == restored_bytes(
                local_dest, name
            )
        local_vault.close()

    def test_second_run_transfers_nothing(self, client, tmp_path):
        data = write_dataset(tmp_path)
        first = client.backup("j", [str(data)])
        assert first.transferred_bytes > 0
        second = client.backup("j", [str(data)])
        # Job-chain filtering: every chunk of the unchanged dataset is
        # filtered client-side of the wire; none is re-transferred.
        assert second.transferred_bytes == 0

    def test_remote_backup_passes_audit(self, daemon, client, tmp_path):
        vault, _, _ = daemon
        data = write_dataset(tmp_path)
        client.backup("audited", [str(data)])
        report = vault.audit(deep=True)
        assert report.ok, report.findings

    def test_runs_stats_verify_forget_gc(self, daemon, client, tmp_path):
        data = write_dataset(tmp_path)
        run = client.backup("life", [str(data)])
        runs = client.runs()
        assert [r.run_id for r in runs] == [run.run_id]
        assert client.runs(job="other") == []
        stats = client.stats()
        assert stats["runs"] == 1 and stats["physical_bytes"] > 0
        verdict = client.verify(deep=True)
        assert verdict["ok"] is True
        client.forget(run.run_id)
        assert client.runs() == []
        report = client.gc()
        assert report["containers_removed"] >= 1

    def test_remote_deep_verify_reports_corruption_in_band(
        self, daemon, client, tmp_path
    ):
        # Media rot found by a remote deep verify must come back as an
        # in-band finding ({"ok": False, ...} -> exit 3), not as a typed
        # exception lost over the wire (regression: CorruptionError is a
        # MediaError, which _on_verify's VaultError catch used to miss).
        vault, _, _ = daemon
        data = write_dataset(tmp_path, n_files=2)
        client.backup("rot", [str(data)])
        cid = vault.repository.container_ids()[0]
        path = vault.repository.path_for(cid)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        # Drop the cached image so the deep verify re-reads the rotted disk.
        vault.repository.invalidate(cid)
        verdict = client.verify(deep=True)
        assert verdict["ok"] is False
        assert verdict["finding"]

    def test_remote_error_for_missing_run(self, client, tmp_path):
        with pytest.raises(RemoteError) as exc:
            client.restore(99, tmp_path / "x")
        assert "99" in str(exc.value)

    def test_unknown_session_is_remote_error(self, client):
        with pytest.raises(RemoteError):
            client.net.call(m.SESSION_COMMIT, m._U32.pack(12345))


class TestFaultRecovery:
    @pytest.mark.parametrize("action", FRAME_FAULTS)
    def test_backup_survives_frame_fault(self, daemon, client, tmp_path, action):
        vault, _, _ = daemon
        data = write_dataset(tmp_path)
        with inject_frames(client.net, action, occurrence=3) as plan:
            run = client.backup(f"job-{action}", [str(data)])
        assert plan.fired
        # Exactly one run recorded despite the retried frame.
        assert [r.run_id for r in client.runs(job=f"job-{action}")] == [run.run_id]
        dest = tmp_path / "out"
        client.restore(run.run_id, dest)
        for i in range(5):
            assert restored_bytes(dest, f"f{i}.bin") == (
                data / f"f{i}.bin"
            ).read_bytes()
        assert vault.audit().ok

    def test_no_duplicate_chunk_log_entries(self, daemon, client, tmp_path):
        # A duplicated CHUNK_APPEND frame must not double-log: the second
        # copy is answered from the idempotency cache.  Every stored
        # chunk appears exactly once across the store.
        vault, _, _ = daemon
        data = write_dataset(tmp_path, n_files=3)
        with inject_frames(client.net, "duplicate", occurrence=4) as plan:
            client.backup("dup-job", [str(data)])
        assert plan.fired
        report = vault.audit(deep=True)
        assert report.ok, report.findings
        seen = set()
        for container in vault.repository.iter_containers():
            for fp in container.fingerprints:
                assert fp not in seen, "chunk stored twice"
                seen.add(fp)

    def test_drop_increments_retry_counter(self, daemon, tmp_path):
        _, host, port = daemon
        registry = MetricsRegistry()
        data = write_dataset(tmp_path, n_files=2)
        with RemoteBackupClient(
            host, port, retry=FAST_RETRY, registry=registry
        ) as rc:
            with inject_frames(rc.net, "drop", occurrence=2):
                rc.backup("retry-job", [str(data)])
        metrics = {row["name"]: row for row in registry.snapshot_metrics()}
        assert metrics["net.retries"]["samples"][0]["value"] >= 1
        assert metrics["net.reconnects"]["samples"][0]["value"] >= 1

    def test_retry_budget_exhausts_cleanly(self, tmp_path):
        # Nobody listens on this port: the client must fail with
        # RemoteUnavailable after its budget, not hang or crash.
        probe = NetClient(
            "127.0.0.1",
            1,  # reserved port, nothing listens there
            retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                              max_delay=0.02, timeout=0.2),
        )
        with pytest.raises((RemoteUnavailable, OSError)):
            probe.call(m.PING)


class TestNetTelemetry:
    def test_client_publishes_net_metrics(self, daemon, tmp_path):
        _, host, port = daemon
        registry = MetricsRegistry()
        data = write_dataset(tmp_path, n_files=3)
        with RemoteBackupClient(
            host, port, retry=FAST_RETRY, registry=registry
        ) as rc:
            run = rc.backup("metered", [str(data)])
            rc.restore(run.run_id, tmp_path / "out")
        metrics = {row["name"]: row for row in registry.snapshot_metrics()}
        for name in ("net.bytes_sent", "net.bytes_received",
                     "net.requests", "net.rpc_latency"):
            assert name in metrics, sorted(metrics)
        sent = metrics["net.bytes_sent"]["samples"][0]
        assert sent["labels"] == {"role": "client"}
        # The wire carried at least the dataset itself.
        assert sent["value"] > run.logical_bytes
        by_type = {
            tuple(sample["labels"].items()): sample["value"]
            for sample in metrics["net.requests"]["samples"]
        }
        assert any("chunk_append" in str(k) for k in by_type), by_type

    def test_idempotent_replay_is_not_reexecuted(self, daemon, client):
        # Same request id sent twice -> the server must answer the second
        # from its cache: same session id in both responses.
        rid = client.net._next_rid()
        payload = m.encode_json({"job": "replay", "filtering": True})
        frame_payloads = []
        for _ in range(2):
            client.net._ensure_connected()
            from repro.net.framing import Frame

            client.net._send_raw(Frame(m.SESSION_BEGIN, rid, payload).encode())
            frame_payloads.append(client.net._recv_matching(rid).payload)
        assert frame_payloads[0] == frame_payloads[1]
