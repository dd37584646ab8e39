"""Session lifecycle, admission control and tenancy (DESIGN.md §12).

Pins the serving-core behaviours added with the async rewrite: abandoned
sessions expire by idle TTL (no leak), ``SESSION_ABORT`` discards one
explicitly and idempotently, admission sheds ``Busy`` under the in-flight
and buffered-bytes caps, tenants authenticate with tokens and are held to
their quotas — plus two client-side regressions: the read-ahead planner
must not burn its plan on an off-plan fingerprint (RPC counts prove it)
and ``net.rpc_latency`` must time round trips, not backoff sleeps.
"""

import contextlib
import math
import threading
import time

import pytest

from repro.net import messages as m
from repro.net.client import (
    READ_BATCH,
    NetClient,
    RemoteBackupClient,
    RemoteError,
    RemoteUnavailable,
    RetryPolicy,
    WireSource,
)
from repro.net.faults import inject_frames
from repro.net.server import TenantConfig, serve_vault
from repro.storage.reader import ChunkReader
from repro.system.vault import DebarVault
from repro.telemetry.registry import MetricsRegistry

FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05, timeout=2.0)

#: These cases used to run once per serving core.  One core remains; the
#: single id keeps their names (``...[async]``) stable in the suite.
ONE_CORE = pytest.mark.parametrize("core", ["async"])


@contextlib.contextmanager
def serving(tmp_path, **kw):
    """A live daemon on a loopback port, torn down on exit."""
    registry = kw.pop("registry", None) or MetricsRegistry()
    vault = DebarVault(tmp_path / "vault")
    server = serve_vault(vault, registry=registry, **kw)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield vault, server
    finally:
        server.shutdown()
        server.server_close()
        vault.close()


def write_dataset(root, name="data", n_files=2, size=3000, seed=11):
    import random

    rng = random.Random(seed)
    data = root / name
    data.mkdir(exist_ok=True)
    for i in range(n_files):
        (data / f"f{i}.bin").write_bytes(rng.randbytes(size))
    return data


def begin_session(net, job="j"):
    doc = net.call_json(m.SESSION_BEGIN, {"job": job})
    return int(doc["session"])


def append_chunk(net, session, fp, data):
    payload = m._U32.pack(session) + m.encode_chunk_batch([(fp, data)])
    return m.decode_json(net.call(m.CHUNK_APPEND, payload))


class TestSessionExpiry:
    @ONE_CORE
    def test_idle_sessions_expire_and_release_buffers(self, tmp_path, core):
        with serving(tmp_path) as (vault, server):
            with NetClient("127.0.0.1", server.port, retry=FAST_RETRY) as net:
                session = begin_session(net)
                append_chunk(net, session, b"\x01" * 20, b"x" * 4096)
                assert server.open_sessions() == 1
                assert server.registry.value("net.session_buffered_bytes") == 4096
                # Not yet idle past the TTL: the sweep leaves it alone.
                assert server.expire_idle_sessions() == 0
                # Fast-forward the sweep's clock past the TTL.
                forced = time.monotonic() + server.session_ttl + 1.0
                assert server.expire_idle_sessions(now=forced) == 1
            assert server.open_sessions() == 0
            assert server.registry.total("net.sessions_expired") == 1
            assert server.registry.value("net.session_buffered_bytes") == 0

    def test_sweeper_reclaims_abandoned_session_end_to_end(self, tmp_path):
        # A client that dies between SESSION_BEGIN and SESSION_COMMIT used
        # to leak its session (and buffered chunk bytes) forever; the
        # async core's sweeper task reclaims it after the idle TTL.
        with serving(tmp_path, session_ttl=0.3) as (vault, server):
            net = NetClient("127.0.0.1", server.port, retry=FAST_RETRY)
            session = begin_session(net)
            append_chunk(net, session, b"\x02" * 20, b"y" * 2048)
            net.close()  # the client vanishes without commit or abort
            deadline = time.monotonic() + 5.0
            while server.open_sessions() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert server.open_sessions() == 0
            assert server.registry.total("net.sessions_expired") == 1
            assert server.registry.value("net.session_buffered_bytes") == 0


class TestSessionAbort:
    @ONE_CORE
    def test_abort_discards_session_idempotently(self, tmp_path, core):
        with serving(tmp_path) as (vault, server):
            with NetClient("127.0.0.1", server.port, retry=FAST_RETRY) as net:
                session = begin_session(net)
                append_chunk(net, session, b"\x03" * 20, b"z" * 1024)
                first = m.decode_json(
                    net.call(m.SESSION_ABORT, m.encode_json({"session": session}))
                )
                assert first == {
                    "session": session,
                    "discarded": True,
                    "discarded_bytes": 1024,
                }
                assert server.open_sessions() == 0
                # Aborting again (fresh request id) is a no-op success.
                second = m.decode_json(
                    net.call(m.SESSION_ABORT, m.encode_json({"session": session}))
                )
                assert second["discarded"] is False
            assert server.registry.total("net.sessions_aborted") == 1
            assert server.registry.value("net.session_buffered_bytes") == 0

    def test_repeated_fingerprint_in_one_batch_is_counted_once(self, tmp_path):
        """A batch carrying one chunk twice buffers (and releases) it once,
        so the vault-wide and tenant counters return to zero on abort;
        a leak there would end with every append shed Busy."""
        tenants = [TenantConfig.parse("alice=s3cret")]
        with serving(tmp_path, tenants=tenants) as (vault, server):
            with NetClient(
                "127.0.0.1", server.port, client_name="alice",
                token="s3cret", retry=FAST_RETRY,
            ) as net:
                session = begin_session(net)
                fp, data = b"\x07" * 20, b"d" * 1000
                payload = m._U32.pack(session) + m.encode_chunk_batch(
                    [(fp, data), (fp, data)]
                )
                ack = m.decode_json(net.call(m.CHUNK_APPEND, payload))
                assert ack == {"appended": 1, "received": 2}
                assert server.registry.value("net.session_buffered_bytes") == 1000
                aborted = m.decode_json(
                    net.call(m.SESSION_ABORT, m.encode_json({"session": session}))
                )
                assert aborted["discarded_bytes"] == 1000
            assert server.open_sessions() == 0
            assert server.registry.value("net.session_buffered_bytes") == 0
            assert server._tenant_buffered.get("alice", 0) == 0

    def test_client_aborts_session_when_backup_fails(self, tmp_path):
        with serving(tmp_path) as (vault, server):
            data = write_dataset(tmp_path)
            with RemoteBackupClient(
                "127.0.0.1", server.port, retry=FAST_RETRY
            ) as rc:
                original = rc.engine.iter_dataset

                def dies_after_streaming(paths):
                    yield from original(paths)
                    raise RuntimeError("client crashed before commit")

                rc.engine.iter_dataset = dies_after_streaming
                with pytest.raises(RuntimeError):
                    rc.backup("doomed", [str(data)])
            # The failed backup cleaned up after itself: no leaked session,
            # no run recorded, no buffered bytes parked server-side.
            assert server.open_sessions() == 0
            assert server.registry.total("net.sessions_aborted") == 1
            assert server.registry.value("net.session_buffered_bytes") == 0
            assert vault.runs() == []


class TestAdmissionControl:
    def test_inflight_cap_sheds_busy_and_recovers(self, tmp_path):
        # max_inflight=1: while one wedged STATS occupies the daemon, a
        # concurrent PING is shed with ERROR/Busy; the client retries with
        # backoff and both requests ultimately succeed.
        from repro.net import server as server_mod

        with serving(tmp_path, max_inflight=1) as (vault, server):
            entered = threading.Event()
            release = threading.Event()
            original = server_mod._HANDLERS[m.STATS]

            def slow_stats(srv, payload):
                entered.set()
                release.wait(5.0)
                return original(srv, payload)

            server_mod._HANDLERS[m.STATS] = slow_stats
            try:
                net_a = NetClient("127.0.0.1", server.port, retry=FAST_RETRY)
                net_b = NetClient(
                    "127.0.0.1", server.port,
                    retry=RetryPolicy(max_attempts=8, base_delay=0.05,
                                      max_delay=0.2, jitter=0.0, timeout=2.0),
                )
                result = {}

                def slow_call():
                    result["stats"] = net_a.call_json(m.STATS)

                occupier = threading.Thread(target=slow_call, daemon=True)
                occupier.start()
                assert entered.wait(5.0)

                def release_once_shed():
                    deadline = time.monotonic() + 3.0
                    while (
                        time.monotonic() < deadline
                        and server.registry.total("net.busy_rejections") == 0
                    ):
                        time.sleep(0.01)
                    release.set()

                threading.Thread(target=release_once_shed, daemon=True).start()
                assert net_b.call(m.PING, b"x") == b"x"
                occupier.join(10.0)
                assert "runs" in result["stats"]
                assert server.registry.total("net.busy_rejections") >= 1
                net_a.close()
                net_b.close()
            finally:
                server_mod._HANDLERS[m.STATS] = original

    @ONE_CORE
    def test_buffered_bytes_cap_sheds_busy(self, tmp_path, core):
        # A 100-byte vault-wide buffer cannot park a 3000-byte chunk: every
        # attempt is shed Busy until the retry budget runs out.
        with serving(
            tmp_path, max_buffered_bytes=100
        ) as (vault, server):
            with NetClient("127.0.0.1", server.port, retry=FAST_RETRY) as net:
                session = begin_session(net)
                with pytest.raises(RemoteUnavailable):
                    append_chunk(net, session, b"\x04" * 20, b"w" * 3000)
            assert server.registry.total("net.busy_rejections") >= 1
            assert server.registry.value("net.session_buffered_bytes") == 0


class TestTenancy:
    TENANTS = [TenantConfig.parse("alice=s3cret:6000000"),
               TenantConfig.parse("bob=hunter2")]

    def test_authenticated_tenant_backs_up_and_restores(self, tmp_path):
        with serving(tmp_path, tenants=list(self.TENANTS)) as (vault, server):
            data = write_dataset(tmp_path, size=2000)
            with RemoteBackupClient(
                "127.0.0.1", server.port, client_name="alice",
                token="s3cret", retry=FAST_RETRY,
            ) as rc:
                run = rc.backup("tenant-job", [str(data)])
                dest = tmp_path / "out"
                rc.restore(run.run_id, dest)
            for i in range(2):
                restored = next(dest.rglob(f"f{i}.bin")).read_bytes()
                assert restored == (data / f"f{i}.bin").read_bytes()

    @ONE_CORE
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"client_name": "alice", "token": "wrong"},
            {"client_name": "mallory", "token": "s3cret"},
            {"client_name": "alice"},  # no token at all
        ],
        ids=["bad-token", "unknown-tenant", "missing-token"],
    )
    def test_bad_credentials_are_refused(self, tmp_path, core, kwargs):
        with serving(
            tmp_path, tenants=list(self.TENANTS)
        ) as (vault, server):
            net = NetClient(
                "127.0.0.1", server.port, retry=FAST_RETRY, **kwargs
            )
            with pytest.raises(RemoteError) as exc:
                net.call(m.PING, b"x")
            assert exc.value.error == "AuthError"
            net.close()
            assert server.registry.total("net.auth_failures") >= 1

    @pytest.mark.parametrize("command", ["runs", "repl-status", "archive-status"])
    def test_cli_presents_tenant_credentials(self, tmp_path, capsys, command):
        """Every remote CLI command presents --client/--token in its
        handshake, ``repl-status`` and ``archive-status`` included."""
        from repro import cli

        with serving(tmp_path, tenants=list(self.TENANTS)) as (vault, server):
            target = ["--connect", f"127.0.0.1:{server.port}"]
            assert cli.main([command, *target]) == 1
            assert "AuthError" in capsys.readouterr().err
            assert cli.main(
                [command, *target, "--client", "alice", "--token", "s3cret"]
            ) == 0

    @ONE_CORE
    def test_tenant_quota_is_a_hard_error(self, tmp_path, core):
        tenants = [TenantConfig.parse("alice=s3cret:1000")]
        with serving(
            tmp_path, tenants=tenants
        ) as (vault, server):
            with NetClient(
                "127.0.0.1", server.port, client_name="alice",
                token="s3cret", retry=FAST_RETRY,
            ) as net:
                session = begin_session(net)
                # Under quota: fine.
                append_chunk(net, session, b"\x05" * 20, b"a" * 500)
                # Over quota: QuotaError, not a retryable Busy.
                with pytest.raises(RemoteError) as exc:
                    append_chunk(net, session, b"\x06" * 20, b"b" * 600)
                assert exc.value.error == "QuotaError"
                # The hard error burned no retries.
                assert server.registry.total("net.busy_rejections") == 0


class TestReadAheadRegression:
    def test_off_plan_read_does_not_burn_the_plan(self, tmp_path):
        # Regression: read_chunk used to advance _plan_pos destructively
        # while scanning for an off-plan fingerprint, so one off-plan read
        # degraded every later planned read to one RPC per chunk.  The
        # RPC counts prove the plan survives.
        with serving(tmp_path) as (vault, server):
            data = write_dataset(tmp_path, n_files=2, size=1_200_000, seed=3)
            with RemoteBackupClient(
                "127.0.0.1", server.port, retry=FAST_RETRY
            ) as rc:
                run = rc.backup("plan", [str(data)])
                entries = rc.run_entries(run.run_id)
                by_file = {e.metadata.path.rsplit("/", 1)[-1]: e for e in entries}
                planned = list(dict.fromkeys(by_file["f0.bin"].fingerprints))
                off_plan = next(
                    fp for fp in by_file["f1.bin"].fingerprints
                    if fp not in set(planned)
                )
                assert len(planned) > READ_BATCH, "dataset fits one batch"

                reader = ChunkReader([("server", WireSource(rc.net))], planned)
                calls = {"chunk_read": 0}
                original_call = rc.net.call

                def counting_call(msg_type, payload=b""):
                    if msg_type == m.CHUNK_READ:
                        calls["chunk_read"] += 1
                    return original_call(msg_type, payload)

                rc.net.call = counting_call
                # An off-plan probe first (a scrub repair read, say) ...
                assert reader.read_chunk(off_plan)
                assert calls["chunk_read"] == 1
                # ... then the planned sequential restore still batches.
                for fp in planned:
                    assert reader.read_chunk(fp)
                expected = 1 + math.ceil(len(planned) / READ_BATCH)
                assert calls["chunk_read"] == expected, (
                    f"{calls['chunk_read']} CHUNK_READ RPCs for "
                    f"{len(planned)} planned chunks (batch={READ_BATCH}); "
                    "the off-plan read burned the plan"
                )


class TestLatencyAccounting:
    def test_rpc_latency_excludes_backoff_sleeps(self, tmp_path):
        # Regression: call() used to stamp t0 before the retry loop, so a
        # dropped frame inflated net.rpc_latency by the attempt timeout
        # plus the backoff sleep.  Each attempt is now timed individually:
        # the one observation comes from the successful round trip.
        with serving(tmp_path) as (vault, server):
            registry = MetricsRegistry()
            net = NetClient(
                "127.0.0.1", server.port, registry=registry,
                retry=RetryPolicy(max_attempts=3, base_delay=0.5,
                                  max_delay=0.5, jitter=0.0, timeout=0.25),
            )
            try:
                with inject_frames(net, "drop", occurrence=1) as plan:
                    assert net.ping()
                assert plan.fired
            finally:
                net.close()
            metrics = {row["name"]: row for row in registry.snapshot_metrics()}
            ping = next(
                s for s in metrics["net.rpc_latency"]["samples"]
                if s["labels"].get("type") == "ping"
            )
            assert ping["count"] == 1
            # Well under the 0.25s attempt timeout + 0.5s backoff the old
            # accounting would have folded in.
            assert ping["sum"] < 0.2, ping
            assert registry.total("net.retries") >= 1
