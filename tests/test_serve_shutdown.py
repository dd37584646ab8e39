"""``repro serve`` graceful shutdown: SIGINT/SIGTERM drain to exit 0.

Two layers: subprocess tests send real signals to a real daemon and
assert a clean exit ("shutdown complete", code 0); in-process tests pin
the drain semantics — in-flight requests finish, the replication queue
flushes, post-drain requests are refused, and a wedged request loses to
the timeout rather than hanging the shutdown forever.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.net import messages as m
from repro.net.client import NetClient, RetryPolicy
from repro.net.server import serve_vault
from repro.replication.replicator import Replicator
from repro.system.vault import DebarVault

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05, timeout=2.0)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def start_serve_process(tmp_path, *extra_args):
    port_file = tmp_path / "port"
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--vault", str(tmp_path / "vault"),
            "--port-file", str(port_file),
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 15.0
    while not port_file.exists():
        if proc.poll() is not None:
            raise AssertionError(
                f"serve exited early ({proc.returncode}): {proc.stdout.read()}"
            )
        if time.monotonic() > deadline:
            proc.kill()
            raise AssertionError("serve never wrote its port file")
        time.sleep(0.05)
    return proc, int(port_file.read_text().strip())


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
def test_signal_shuts_down_cleanly(tmp_path, sig):
    proc, port = start_serve_process(tmp_path)
    try:
        with NetClient("127.0.0.1", port, retry=FAST_RETRY) as net:
            assert net.ping()
        proc.send_signal(sig)
        out, _ = proc.communicate(timeout=15.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert "shutdown complete" in out


def test_sigterm_drains_replication_queue(tmp_path):
    # The daemon replicates to a peer; a SIGTERM right after a backup must
    # flush the queued shipments before the process exits.
    peer_vault = DebarVault(tmp_path / "peer")
    peer = serve_vault(peer_vault, node_name="b")
    peer_thread = threading.Thread(target=peer.serve_forever, daemon=True)
    peer_thread.start()
    try:
        proc, port = start_serve_process(
            tmp_path,
            "--node-name", "a",
            "--replicate-to", f"b=127.0.0.1:{peer.port}",
        )
        try:
            data = tmp_path / "data"
            data.mkdir()
            (data / "x.bin").write_bytes(os.urandom(4000) * 2)
            backup = subprocess.run(
                [
                    sys.executable, "-m", "repro", "backup",
                    "--connect", f"127.0.0.1:{port}",
                    "--job", "j", str(data),
                ],
                capture_output=True, text=True, timeout=30.0,
                env=dict(os.environ, PYTHONPATH=SRC),
            )
            assert backup.returncode == 0, backup.stderr
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=20.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "shutdown complete" in out
        assert "drain timed out" not in out
        # Every container the daemon sealed arrived at the peer.
        with DebarVault(tmp_path / "vault") as vault_a:
            sealed = vault_a.repository.container_ids()
        assert sealed  # the backup really stored something
        assert peer.replica_store.container_ids("a") == sealed
        assert peer.replica_store.has_catalog("a")
    finally:
        peer.shutdown()
        peer.server_close()
        peer_vault.close()


class TestGracefulDrainInProcess:
    # One serving core remains; the single id keeps this case's name stable.
    @pytest.mark.parametrize("core", ["async"])
    def test_drain_under_load_completes_without_timeout(self, tmp_path, core):
        # Regression for the drain-flag ordering bug: persistent
        # connections hammering the daemon used to keep admitting new
        # requests while shutdown_gracefully waited for in-flight to hit
        # zero, so every drain under load exited via its timeout.  With
        # the flag raised BEFORE the wait, the hammering clients are
        # refused and the drain completes promptly.
        vault = DebarVault(tmp_path / "vault")
        server = serve_vault(vault)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        stop_hammer = threading.Event()
        counts = [0] * 4

        def hammer(slot):
            net = NetClient("127.0.0.1", server.port, retry=FAST_RETRY)
            try:
                while not stop_hammer.is_set():
                    net.call(m.PING, b"x")
                    counts[slot] += 1
            except Exception:
                pass  # refused/dropped once the drain begins
            finally:
                net.close()

        hammers = [
            threading.Thread(target=hammer, args=(i,), daemon=True)
            for i in range(len(counts))
        ]
        for t in hammers:
            t.start()
        # Let the load establish itself before draining.
        deadline = time.monotonic() + 5.0
        while sum(counts) < 20 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sum(counts) >= 20, "hammer clients never got going"
        t0 = time.monotonic()
        try:
            drained = server.shutdown_gracefully(timeout=10.0)
            elapsed = time.monotonic() - t0
            assert drained is True
            assert elapsed < 8.0, f"drain under load took {elapsed:.1f}s"
        finally:
            stop_hammer.set()
            for t in hammers:
                t.join(5.0)
            vault.close()

    def test_drain_finishes_in_flight_then_refuses(self, tmp_path):
        vault = DebarVault(tmp_path / "vault")
        server = serve_vault(vault)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        release = threading.Event()
        entered = threading.Event()
        from repro.net import server as server_mod

        original = server_mod._HANDLERS[m.STATS]

        def slow_stats(srv, payload):
            entered.set()
            release.wait(5.0)
            return original(srv, payload)

        server_mod._HANDLERS[m.STATS] = slow_stats
        try:
            net = NetClient("127.0.0.1", server.port, retry=FAST_RETRY)
            result = {}

            def slow_call():
                result["stats"] = net.call_json(m.STATS)

            caller = threading.Thread(target=slow_call, daemon=True)
            caller.start()
            assert entered.wait(5.0)

            done = {}

            def shut():
                done["drained"] = server.shutdown_gracefully(timeout=10.0)

            shutter = threading.Thread(target=shut, daemon=True)
            shutter.start()
            time.sleep(0.2)
            assert "drained" not in done  # still waiting on the slow request
            release.set()
            shutter.join(10.0)
            caller.join(10.0)
            assert done.get("drained") is True
            assert "runs" in result["stats"]  # the in-flight request finished
            # Post-drain, the daemon refuses further work on the old line.
            from repro.net.framing import ProtocolError

            with pytest.raises((ProtocolError, OSError)):
                net.call(m.PING, b"ping")
            net.close()
        finally:
            server_mod._HANDLERS[m.STATS] = original
            vault.close()

    def test_drain_timeout_forces_close(self, tmp_path):
        vault = DebarVault(tmp_path / "vault")
        server = serve_vault(vault)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        stuck = threading.Event()
        from repro.net import server as server_mod

        original = server_mod._HANDLERS[m.PING]

        def wedge(srv, payload):
            stuck.set()
            time.sleep(3.0)
            return m.PONG, payload

        server_mod._HANDLERS[m.PING] = wedge
        try:
            net = NetClient("127.0.0.1", server.port, retry=FAST_RETRY)

            def doomed_ping():
                try:
                    net.call(m.PING, b"x")
                except Exception:
                    pass  # the forced close is expected to kill this call

            threading.Thread(target=doomed_ping, daemon=True).start()
            assert stuck.wait(5.0)
            t0 = time.monotonic()
            assert server.shutdown_gracefully(timeout=0.5) is False
            assert time.monotonic() - t0 < 5.0
            net.close()
        finally:
            server_mod._HANDLERS[m.PING] = original
            vault.close()

    def test_graceful_close_drains_replicator(self, tmp_path):
        peer_vault = DebarVault(tmp_path / "peer")
        peer = serve_vault(peer_vault, node_name="b")
        threading.Thread(target=peer.serve_forever, daemon=True).start()
        vault = DebarVault(tmp_path / "vault")
        server = serve_vault(vault, node_name="a")
        threading.Thread(target=server.serve_forever, daemon=True).start()
        replicator = Replicator(
            vault, "a", {"b": ("127.0.0.1", peer.port)}, retry=FAST_RETRY
        )
        vault.replicator = replicator
        server.replicator = replicator
        try:
            replicator.pause()  # queue builds up while stalled
            data = tmp_path / "data"
            data.mkdir()
            (data / "x.bin").write_bytes(os.urandom(3000))
            vault.backup("j", [str(data)])
            assert peer.replica_store.container_ids("a") == []
            replicator.resume()
            assert server.shutdown_gracefully(timeout=15.0) is True
            assert peer.replica_store.container_ids("a") == (
                vault.repository.container_ids()
            )
        finally:
            vault.replicator = None
            peer.shutdown()
            peer.server_close()
            peer_vault.close()
            vault.close()
