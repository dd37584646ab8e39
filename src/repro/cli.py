"""Command-line interface to a local or remote DEBAR vault.

::

    python -m repro backup  --vault ~/.debar --job homedirs /data/home
    python -m repro list    --vault ~/.debar
    python -m repro restore --vault ~/.debar --run 3 --dest /restore
    python -m repro verify  --vault ~/.debar
    python -m repro audit   --vault ~/.debar --deep
    python -m repro scrub   --vault ~/.debar --repair --peer replica:7070
    python -m repro stats   --vault ~/.debar [--telemetry]
    python -m repro trace   backup --vault ~/.debar --job homedirs /data/home
    python -m repro recover-index --vault ~/.debar
    python -m repro serve   --vault ~/.debar --port 7070
    python -m repro serve   --vault ~/.debar --port 7070 --node-name a \\
                            --replicate-to b=host:7071
    python -m repro backup  --connect host:7070 --job homedirs /data/home
    python -m repro restore --connect host:7070 --run 3 --dest /restore \\
                            --replica b=host:7071
    python -m repro repl-status --connect host:7070 --json status.json
    python -m repro rebuild --vault /new/a --node a --peer b=host:7071
    python -m repro route   --state /srv/router --port 7700 \\
                            --node a=host:7070 --node b=host:7071
    python -m repro serve   --vault ~/.debar --port 7072 --node-name c \\
                            --advertise host:7700
    python -m repro backup  --connect host:7700 --job homedirs /data/home
    python -m repro cluster-status --connect host:7700 --json cluster.json
    python -m repro rebalance --route host:7700
    python -m repro serve   --vault /srv/archive --port 7080 --archive \\
                            --retention keep-last=7,daily=14
    python -m repro serve   --vault ~/.debar --port 7070 --node-name a \\
                            --archive-to vaultkeep=host:7080
    python -m repro archive-status --connect host:7080 --json archive.json
    python -m repro restore --connect host:7080 --as-of 3 --dest /restore
    python -m repro runs    --connect host:7070 --json
    python -m repro forget  --vault ~/.debar --run 2 --gc

``--telemetry`` (on ``backup``, ``restore``, ``gc`` and ``stats``) turns on
the metrics registry for the invocation; ``backup``/``restore``/``gc``
persist the cumulative counters to ``<vault>/telemetry.json`` so a later
``stats --telemetry`` can report across runs.  ``trace`` wraps ``backup`` or
``restore`` and prints the span tree of the invocation.

``serve`` hosts a vault behind the wire protocol of :mod:`repro.net`
(DESIGN.md §9); every data command except ``audit`` and ``recover-index``
then also accepts ``--connect host:port`` in place of ``--vault`` and runs
against the daemon through :class:`repro.net.client.RemoteBackupClient`.
A ``repro route`` front door speaks the same protocol, so a cluster
client passes the router's address to ``--connect`` and the router
proxies every frame to the node the placement ring picks (DESIGN.md §14).

Exit codes are part of the interface::

    0   success
    1   operational error (missing vault/run, I/O failure, refused
        connection, retry budget exhausted)
    2   usage error (argparse: unknown flags, missing arguments, or
        neither/both of --vault and --connect)
    3   corruption: ``verify`` failed to resolve a fingerprint or found a
        payload digest mismatch; ``audit`` reported findings; ``scrub``
        found damage it could not repair
    4   ``serve`` could not bind its listening socket

Corruption is mapped to exit code 3 in exactly one place —
:func:`main` catches the typed
:class:`~repro.durability.errors.CorruptionError` — so every command
that trips over rotted media reports it the same way.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional

from repro.durability.errors import CorruptionError, DiskFullError
from repro.net.client import RemoteBackupClient
from repro.net.framing import ProtocolError
from repro.net.server import serve_vault
from repro.system.vault import DebarVault, VaultError
from repro.telemetry import enable as telemetry_enable
from repro.telemetry.export import build_snapshot, merge_snapshot_file, save_snapshot
from repro.util import fmt_bytes

#: Per-vault cumulative telemetry snapshot (counters survive across runs).
TELEMETRY_SNAPSHOT = "telemetry.json"

# Documented exit codes (see module docstring).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2  # argparse's own convention; validated in main()
EXIT_CORRUPTION = 3
EXIT_SERVE = 4


def _parse_connect(spec: str):
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise VaultError(f"expected host:port, got {spec!r}")
    return host or "127.0.0.1", int(port)


def _parse_peer(spec: str):
    """``[NAME=]HOST:PORT`` -> (name, host, port); name defaults to the
    address, which keeps reports readable without forcing a cluster map."""
    name, sep, address = spec.partition("=")
    if not sep:
        name, address = spec, spec
    host, port = _parse_connect(address)
    return name, host, port


def _parse_peers(specs) -> dict:
    """Repeated ``[NAME=]HOST:PORT`` flags -> ``{name: (host, port)}``."""
    return {name: (host, port) for name, host, port in map(_parse_peer, specs)}


def _retry_from(args):
    """The remote retry policy this invocation asked for, or None for the
    defaults.  ``--connect-timeout`` bounds only the TCP connect, so a
    down node fails fast without shrinking the request timeout that long
    server-side work (commit, dedup-2) legitimately needs."""
    from repro.net.client import RetryPolicy

    timeout = getattr(args, "connect_timeout", None)
    if timeout is None:
        return None
    return RetryPolicy(connect_timeout=timeout)


def _client_kwargs(args) -> dict:
    return {
        "client_name": getattr(args, "client", None) or "remote",
        "token": getattr(args, "token", None),
        "retry": _retry_from(args),
    }


def _net_client(address: str, args):
    """A bare protocol connection for the status and control-plane
    commands, built like every other remote client of this invocation."""
    from repro.net.client import NetClient

    return NetClient(*_parse_connect(address), **_client_kwargs(args))


def _save_json(path, doc, what: str, sort_keys: bool = False) -> None:
    """``--json`` / ``--report-json PATH``: also write ``doc`` there."""
    if path:
        Path(path).write_text(json.dumps(doc, indent=1, sort_keys=sort_keys))
        print(f"{what} written to {path}")


def _no_vault(args) -> bool:
    """Opening a vault creates one; a command that must never "pass" a
    vault it just conjured out of a mistyped path checks here first."""
    if Path(args.vault).is_dir():
        return False
    print(f"error: no vault at {args.vault}", file=sys.stderr)
    return True


@contextmanager
def _open(args):
    """The command's target: a local vault or a remote daemon.

    Both expose the same data surface (backup/restore/restore_as_of/
    runs/stats/gc/verify/forget), so the commands below stay
    shape-agnostic except where return types genuinely differ.
    """
    if getattr(args, "connect", None):
        host, port = _parse_connect(args.connect)
        with RemoteBackupClient(host, port, **_client_kwargs(args)) as client:
            yield client
    else:
        with DebarVault(args.vault) as vault:
            yield vault


def _telemetry_wanted(args) -> bool:
    return getattr(args, "telemetry", False) or getattr(args, "trace", False)


def _telemetry_begin(args):
    """Enable telemetry for this invocation (before the vault is built, so
    every component binds live instruments).  Returns (registry, tracer) or
    (None, None) when telemetry was not requested."""
    if not _telemetry_wanted(args):
        return None, None
    return telemetry_enable()


def _telemetry_finish(args, registry, tracer) -> None:
    """Fold the vault's persisted counters in, re-persist, honour --trace
    and --telemetry-json.  Remote invocations have no vault directory to
    persist into; their (client-side, ``net.*``-bearing) snapshot still
    goes to --telemetry-json."""
    if registry is None:
        return
    if getattr(args, "vault", None):
        path = Path(args.vault) / TELEMETRY_SNAPSHOT
        merge_snapshot_file(path, registry)
        snapshot = build_snapshot(registry, tracer)
        save_snapshot(snapshot, path)
    else:
        snapshot = build_snapshot(registry, tracer)
    if getattr(args, "telemetry_json", None):
        save_snapshot(snapshot, args.telemetry_json)
        print(f"telemetry snapshot written to {args.telemetry_json}")
    if getattr(args, "trace", False):
        rendered = tracer.render()
        if rendered:
            print(rendered.rstrip("\n"))


def cmd_backup(args) -> int:
    registry, tracer = _telemetry_begin(args)
    with _open(args) as target:
        # The timestamp comes from the vault's single clock helper
        # (repro.telemetry.clock.wall_now), not a raw time.time() here.
        run = target.backup(args.job, args.paths)
        saved = run.logical_bytes - run.transferred_bytes
        print(
            f"run {run.run_id}: {run.summary()['files']} files, "
            f"{fmt_bytes(run.logical_bytes)} logical, "
            f"{fmt_bytes(run.transferred_bytes)} transferred "
            f"({fmt_bytes(saved)} filtered as duplicate)"
        )
        _telemetry_finish(args, registry, tracer)
    return EXIT_OK


def cmd_list(args) -> int:
    with _open(args) as target:
        # One row shape for a local VaultRun and a RemoteRun alike.
        rows = [run.summary() for run in target.runs(job=args.job)]
        if getattr(args, "json", False):
            print(json.dumps(rows, indent=1, sort_keys=True))
            return EXIT_OK
        if not rows:
            print("no runs recorded")
            return EXIT_OK
        print(f"{'run':>4}  {'job':<16} {'files':>6} {'logical':>10} {'transferred':>12}")
        for row in rows:
            print(
                f"{row['run_id']:>4}  {row['job']:<16} {row['files']:>6} "
                f"{fmt_bytes(row['logical_bytes']):>10} "
                f"{fmt_bytes(row['transferred_bytes']):>12}"
            )
    return EXIT_OK


def cmd_restore(args) -> int:
    registry, tracer = _telemetry_begin(args)
    as_of = getattr(args, "as_of", None)
    if (args.run is None) == (as_of is None):
        print(
            "error: exactly one of --run or --as-of is required",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if as_of is not None:
        try:
            return _restore_as_of(args, registry, tracer)
        except (KeyError, ValueError) as exc:
            print(
                f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr
            )
            return EXIT_ERROR
    # Each --replica daemon is one more source of the target's chunk
    # reader, so a chunk lost (or timing out) at the primary is
    # transparently served by a surviving replica.
    replicas = _wire_sources(_parse_peers(getattr(args, "replica", None) or []))
    try:
        with _open(args) as target:
            paths = target.restore(
                args.run, args.dest, strip_prefix=args.strip_prefix,
                job=getattr(args, "job", None), fallbacks=replicas,
            )
            print(f"restored {len(paths)} files to {args.dest}")
            _telemetry_finish(args, registry, tracer)
    finally:
        _close_sources(replicas)
    return EXIT_OK


def _restore_as_of(args, registry, tracer) -> int:
    """Point-in-time restore (``--as-of``, DESIGN.md §15.5).

    Every target applies one rule (``restore_as_of``): the live catalog
    first when it still records the run (the same bytes, without folding
    a delta chain), then its archived chain — ``<vault>/archive`` locally,
    ``ARCHIVE_STATUS``/``DELTA_FETCH`` over the wire.  Through a
    ``repro route`` front door the router merges every node's archive
    status and fails ``DELTA_FETCH`` over across the live nodes, so the
    archive path works with the origin vault destroyed, which is the
    disaster-recovery story.
    """
    with _open(args) as target:
        paths = target.restore_as_of(
            args.as_of, args.dest, strip_prefix=args.strip_prefix,
            job=getattr(args, "job", None), origin=getattr(args, "origin", None),
        )
    print(
        f"restored {len(paths)} files to {args.dest} (as of run {args.as_of})"
    )
    _telemetry_finish(args, registry, tracer)
    return EXIT_OK


def _wire_sources(peers: dict) -> list:
    """``{name: (host, port)}`` -> named chunk sources (``--replica``,
    ``scrub --peer``), one lazily dialled connection each."""
    from repro.net.client import WireSource

    return [
        (name, WireSource.dial(host, port, name))
        for name, (host, port) in peers.items()
    ]


def _close_sources(sources: list) -> None:
    for _, source in sources:
        source.close()


def cmd_verify(args) -> int:
    with _open(args) as target:
        report = target.verify(deep=args.deep)
        # Local corruption raises CorruptionError, mapped to exit 3 by
        # main().  The daemon reports corruption in-band so a remote
        # verify can still exit 3 (the server's exception does not cross
        # the wire typed).
        if not report.get("ok", True):
            print(f"corruption: {report.get('finding')}", file=sys.stderr)
            return EXIT_CORRUPTION
        print(
            f"OK: {report['fingerprints']} fingerprints across "
            f"{report['runs']} runs all resolve"
        )
    return EXIT_OK


def cmd_audit(args) -> int:
    if _no_vault(args):
        return EXIT_ERROR
    with _open(args) as vault:
        report = vault.audit(deep=args.deep)
        print(report.summary())
    return EXIT_OK if report.ok else EXIT_CORRUPTION


def cmd_stats(args) -> int:
    registry, tracer = _telemetry_begin(args)
    with _open(args) as target:
        if registry is not None and getattr(args, "vault", None):
            # Prior runs' counters accumulate under the live gauges.
            merge_snapshot_file(Path(args.vault) / TELEMETRY_SNAPSHOT, registry)
        s = target.stats()
        ratio = s.get("compression_ratio")
        ratio_text = "inf" if ratio is None or ratio == float("inf") else f"{ratio:.2f}:1"
        print(f"runs               : {s['runs']:.0f}")
        print(f"logical protected  : {fmt_bytes(s['logical_bytes'])}")
        print(f"physical stored    : {fmt_bytes(s['physical_bytes'])}")
        print(f"compression        : {ratio_text}")
        print(f"containers         : {s['containers']:.0f}")
        print(f"index entries      : {s['index_entries']:.0f} "
              f"({s['index_utilization']:.1%} utilized)")
        if registry is not None:
            snapshot = build_snapshot(registry, tracer)
            if getattr(args, "telemetry_json", None):
                save_snapshot(snapshot, args.telemetry_json)
                print(f"telemetry snapshot written to {args.telemetry_json}")
            else:
                print(json.dumps(snapshot, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_forget(args) -> int:
    with _open(args) as target:
        target.forget(args.run, job=getattr(args, "job", None))
        if not getattr(args, "gc", False):
            print(
                f"run {args.run} dropped from the catalog "
                "(space reclaimed on gc)"
            )
            return EXIT_OK
        # --gc: close the orphan window (DESIGN.md §15.6) in the same
        # invocation — the run's now-unreferenced chunks are copy-forward
        # collected before the command returns.
        report = target.gc(rewrite_threshold=args.rewrite_threshold)
        if isinstance(report, dict):  # the daemon returns the report's fields
            report = SimpleNamespace(**report)
        print(
            f"run {args.run} dropped; gc reclaimed "
            f"{fmt_bytes(report.bytes_reclaimed)} "
            f"({report.containers_removed} containers removed, "
            f"{report.containers_rewritten} rewritten)"
        )
    return EXIT_OK


def cmd_gc(args) -> int:
    registry, tracer = _telemetry_begin(args)
    with _open(args) as target:
        report = target.gc(rewrite_threshold=args.rewrite_threshold)
        if isinstance(report, dict):  # the daemon returns the report's fields
            report = SimpleNamespace(**report)
        print(
            f"scanned {report.containers_scanned} containers: "
            f"{report.containers_removed} removed, "
            f"{report.containers_rewritten} rewritten, "
            f"{report.containers_kept_with_dead} kept with dead space; "
            f"{fmt_bytes(report.bytes_reclaimed)} reclaimed"
        )
        _telemetry_finish(args, registry, tracer)
    return EXIT_OK


def cmd_scrub(args) -> int:
    if _no_vault(args):
        return EXIT_ERROR
    from repro.durability.scrubber import Scrubber

    registry, tracer = _telemetry_begin(args)
    peers = _wire_sources(_parse_peers(args.peer or []))
    if args.repair and not peers:
        # No peers named: heal from the replicas this vault already
        # replicates to (replication.json), automatically.
        from repro.replication.replicator import peers_from_state

        peers = _wire_sources(dict(sorted(peers_from_state(args.vault).items())))
        if peers:
            print(
                "repair sources from replication state: "
                + ", ".join(name for name, _ in peers)
            )
    try:
        with DebarVault(args.vault) as vault:
            scrubber = Scrubber(
                vault,
                peers=peers,
                rate_bps=args.rate * 1024 * 1024 if args.rate else None,
                max_records=args.limit,
                reset_cursor=args.reset_cursor,
            )
            report = scrubber.run(repair=args.repair)
            print(report.summary())
            _save_json(args.report_json, report.to_json(), "scrub report")
            _telemetry_finish(args, registry, tracer)
    finally:
        _close_sources(peers)
    return EXIT_CORRUPTION if report.unrepaired else EXIT_OK


def cmd_migrate(args) -> int:
    """Move eligible hot containers to the object-store cold tier."""
    if _no_vault(args):
        return EXIT_ERROR
    from repro.backend.lifecycle import LifecycleManager, LifecyclePolicy

    registry, tracer = _telemetry_begin(args)
    with DebarVault(args.vault) as vault:
        if vault.repository.cold is None or args.cold_root:
            vault.enable_cold_tier(root=args.cold_root)
        manager = LifecycleManager(
            vault,
            LifecyclePolicy(
                min_age_runs=args.min_age, min_idle_runs=args.min_idle
            ),
        )
        report = manager.migrate(limit=args.limit, dry_run=args.dry_run)
        verb = "would migrate" if args.dry_run else "migrated"
        print(
            f"{verb} {report.migrated} of {report.examined} hot containers "
            f"({fmt_bytes(report.bytes_moved)}); {report.skipped} kept hot, "
            f"{report.already_cold} already cold"
        )
        for failure in report.failed:
            print(f"  failed: {failure}", file=sys.stderr)
        _save_json(args.report_json, report.to_json(), "migration report")
        _telemetry_finish(args, registry, tracer)
    return EXIT_ERROR if report.failed else EXIT_OK


def cmd_tier_status(args) -> int:
    """Per-tier container placement and lifecycle scores."""
    if _no_vault(args):
        return EXIT_ERROR
    from repro.backend.lifecycle import LifecycleManager, LifecyclePolicy

    with DebarVault(args.vault) as vault:
        manager = LifecycleManager(
            vault,
            LifecyclePolicy(
                min_age_runs=args.min_age, min_idle_runs=args.min_idle
            ),
        )
        status = manager.tier_status()
        tiers = status["tiers"]
        print(
            f"hot : {tiers['hot']['containers']} containers "
            f"({fmt_bytes(tiers['hot']['bytes'])})"
        )
        print(
            f"cold: {tiers['cold']['containers']} containers "
            f"({fmt_bytes(tiers['cold']['bytes'])})"
            + ("" if status["cold_attached"] else "  [no cold tier attached]")
        )
        for c in status["containers"]:
            mark = " eligible" if c["eligible"] and c["tier"] == "hot" else ""
            print(
                f"  container {c['container_id']:>4}  {c['tier']:<4} "
                f"age={c['age_runs']} idle={c['idle_runs']}{mark}"
            )
        _save_json(args.json, status, "tier status")
    return EXIT_OK


def cmd_recover_index(args) -> int:
    with _open(args) as vault:
        entries = vault.recover_index()
        print(f"rebuilt index from container metadata: {entries} entries")
    return EXIT_OK


def _serve_until_signalled(serve_forever, thread_name: str, shutdown) -> None:
    """Run a daemon's ``serve_forever`` on a thread until SIGTERM/SIGINT,
    then call ``shutdown`` and join the thread (``serve`` and ``route``)."""
    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    thread = threading.Thread(target=serve_forever, name=thread_name, daemon=True)
    thread.start()
    try:
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        shutdown()
        thread.join(timeout=5)


def cmd_serve(args) -> int:
    from repro.net.server import TenantConfig

    registry, tracer = _telemetry_begin(args)
    try:
        tenants = [TenantConfig.parse(spec) for spec in (args.tenant or [])]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with DebarVault(args.vault) as vault:
        if args.cold_root:
            vault.enable_cold_tier(root=args.cold_root)
        try:
            server = serve_vault(
                vault,
                host=args.host,
                port=args.port,
                registry=registry,
                node_name=args.node_name,
                max_inflight=args.max_inflight,
                max_buffered_bytes=args.max_buffered_bytes,
                session_ttl=args.session_ttl,
                tenants=tenants,
            )
        except OSError as exc:
            print(f"error: cannot bind {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return EXIT_SERVE
        if args.replicate_to:
            from repro.replication.replicator import Replicator

            peers = _parse_peers(args.replicate_to)
            replicator = Replicator(
                vault,
                node_name=args.node_name,
                peers=peers,
                replication_factor=args.replication_factor,
                registry=registry,
            )
            vault.replicator = replicator
            server.replicator = replicator
            # Containers sealed before these peers were configured (or
            # while the daemon was down) are owed too.
            replicator.sync()
            print(
                f"replicating as {args.node_name!r} "
                f"(rf={replicator.ring.replication_factor}) to: "
                + ", ".join(sorted(peers)),
                flush=True,
            )
        if args.archive or args.retention:
            # Archive role: the server's delta handlers are always live;
            # a retention policy compacts stored chains (expired points
            # merged forward) after each push.
            from repro.archive.retention import RetentionPolicy

            try:
                retention = (
                    RetentionPolicy.parse(args.retention)
                    if args.retention else None
                )
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                server.shutdown_gracefully(timeout=1.0)
                return EXIT_USAGE
            server.archive_retention = retention
            print(
                "archive role enabled "
                + (f"(retention {retention.spec()})" if retention
                   else "(keeping every restore point)"),
                flush=True,
            )
        if args.archive_to:
            from repro.archive.shipper import ArchiveShipper

            peers = _parse_peers(args.archive_to)
            try:
                shipper = ArchiveShipper(
                    vault,
                    node_name=args.node_name,
                    peers=peers,
                    registry=registry,
                )
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                server.shutdown_gracefully(timeout=1.0)
                return EXIT_USAGE
            vault.archive_shipper = shipper
            server.archive_shipper = shipper
            # Runs sealed before these peers were configured (or while
            # the daemon was down) are owed too.
            shipper.sync()
            print(
                f"shipping deltas as {args.node_name!r} to: "
                + ", ".join(sorted(peers)),
                flush=True,
            )
        host, port = server.server_address
        if args.port_file:
            # Written after bind so a supervisor polling the file never
            # reads a port nobody listens on.
            Path(args.port_file).write_text(f"{port}\n")
        print(f"serving vault {args.vault} on {host}:{port}", flush=True)
        if args.advertise:
            # Join the front door's membership table (after bind, so the
            # advertised address is live before the router probes it).  A
            # re-join with the same name+address is idempotent, so a
            # restarted daemon does not churn the ring epoch.
            from repro.net import messages as msg
            from repro.net.client import NetClient

            route_host, route_port = _parse_connect(args.advertise)
            try:
                with NetClient(
                    route_host, route_port, client_name=args.node_name
                ) as net:
                    ack = net.call_json(msg.NODE_JOIN, {
                        "name": args.node_name,
                        "address": f"{host}:{port}",
                    })
                print(
                    f"advertised as {args.node_name!r} to router "
                    f"{args.advertise} (epoch {ack['epoch']})",
                    flush=True,
                )
            except (ProtocolError, ConnectionError, OSError) as exc:
                # The daemon still serves; an operator can join it later.
                print(
                    f"warning: could not advertise to {args.advertise}: {exc}",
                    file=sys.stderr, flush=True,
                )

        def shutdown() -> None:
            # Graceful drain: stop accepting, finish in-flight requests,
            # flush the replication queue, then close the sockets.
            drained = server.shutdown_gracefully(timeout=args.drain_timeout)
            vault.replicator = None
            vault.archive_shipper = None
            if not drained:
                print("drain timed out; forced close", flush=True)

        try:
            _serve_until_signalled(server.serve_forever, "repro-serve", shutdown)
        finally:
            _telemetry_finish(args, registry, tracer)
    print("shutdown complete", flush=True)
    return EXIT_OK


def cmd_rebuild(args) -> int:
    """Reconstruct a lost node's vault from its surviving replicas."""
    from repro.replication.rebuild import RebuildError, rebuild_node

    try:
        report = rebuild_node(args.node, args.vault, _parse_peers(args.peer))
    except RebuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(
        f"rebuilt node {args.node!r} at {args.vault}: "
        f"{report.containers_recovered} containers "
        f"({fmt_bytes(report.bytes_recovered)}), "
        f"{report.chunks_verified} chunks verified, "
        f"{report.index_entries} index entries, "
        f"{report.catalog_runs} catalogued runs "
        f"(catalog from {report.catalog_source})"
    )
    for cid, peer in sorted(report.sources.items()):
        print(f"  container {cid}: pulled from {peer}")
    for note in report.notes:
        print(f"  note: {note}")
    print(f"audit: {'PASS' if report.audit_ok else 'FAIL'}")
    _save_json(args.report_json, report.to_json(), "rebuild report")
    return EXIT_OK if report.audit_ok else EXIT_CORRUPTION


def _status_command(args, what: str, msg_type: int, state_file: str, inbound) -> int:
    """``repl-status`` / ``archive-status``: the daemon's live answer over
    the wire, or the same document assembled from a local vault — the
    ``inbound(vault_dir)`` inventory plus the outbound shipper's state file.
    """
    if args.connect:
        with _net_client(args.connect, args) as net:
            status = net.call_json(msg_type, {})
    else:
        if _no_vault(args):
            return EXIT_ERROR
        state_path = Path(args.vault) / state_file
        outbound = None
        if state_path.exists():
            try:
                outbound = json.loads(state_path.read_text())
            except ValueError:
                outbound = {"error": f"{what} state unreadable"}
        status = {
            "node": (outbound or {}).get("node"),
            **inbound(Path(args.vault)),
            "outbound": outbound,
        }
    print(json.dumps(status, indent=1, sort_keys=True))
    _save_json(args.json, status, f"{what} status", sort_keys=True)
    return EXIT_OK


def cmd_repl_status(args) -> int:
    """Replication state: inbound replica inventory + outbound queue."""
    from repro.net import messages as m
    from repro.replication.replicator import Replicator
    from repro.replication.store import ReplicaStore

    return _status_command(
        args, "replication", m.REPL_STATUS, Replicator.STATE_FILE,
        lambda vault: {"replicas": ReplicaStore(vault / "replicas").status()},
    )


def cmd_archive_status(args) -> int:
    """Archive state: stored delta chains + outbound shipping queue."""
    from repro.archive.shipper import ArchiveShipper
    from repro.archive.store import ArchiveStore
    from repro.net import messages as m

    return _status_command(
        args, "archive", m.ARCHIVE_STATUS, ArchiveShipper.STATE_FILE,
        lambda vault: ArchiveStore(vault / "archive").status(),
    )


def cmd_route(args) -> int:
    """Run the cluster front door (DESIGN.md §14)."""
    from repro.frontdoor.membership import ClusterMembership, MembershipError
    from repro.frontdoor.router import FrontDoorRouter

    registry, tracer = _telemetry_begin(args)
    state = Path(args.state)
    state.mkdir(parents=True, exist_ok=True)
    membership = ClusterMembership(
        state, replication_factor=args.replication_factor
    )
    try:
        for spec in args.node or []:
            name, node_host, node_port = _parse_peer(spec)
            membership.join(name, f"{node_host}:{node_port}")
    except MembershipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        router = FrontDoorRouter(
            membership,
            host=args.host,
            port=args.port,
            registry=registry,
            state_dir=state,
            probe_interval=args.probe_interval,
            probe_timeout=args.probe_timeout,
            mark_down_after=args.mark_down_after,
            proxy_timeout=args.proxy_timeout,
        )
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return EXIT_SERVE
    host, port = router.server_address
    if args.port_file:
        Path(args.port_file).write_text(f"{port}\n")
    print(
        f"routing cluster of {len(membership.names())} node(s) on "
        f"{host}:{port} (epoch {membership.epoch})",
        flush=True,
    )

    def shutdown() -> None:
        router.shutdown()
        router.server_close()

    router.health.start()
    try:
        _serve_until_signalled(router.serve_forever, "repro-route", shutdown)
    finally:
        _telemetry_finish(args, registry, tracer)
    print("router shutdown complete", flush=True)
    return EXIT_OK


def cmd_cluster_status(args) -> int:
    """The router's view: membership, health, epoch, rebalance progress."""
    from repro.net import messages as m

    with _net_client(args.connect, args) as net:
        status = net.call_json(m.CLUSTER_STATUS, {})
    print(f"epoch {status['epoch']}  rf={status['replication_factor']}")
    for node in status["nodes"]:
        marker = "" if node["state"] == "up" else f"  ({node['fails']} failed probes)"
        print(f"  {node['name']:<12} {node['address']:<22} {node['state']}{marker}")
    rebalance = status.get("rebalance") or {}
    if rebalance.get("steps"):
        print(
            f"rebalance: {rebalance['done']}/{rebalance['steps']} steps done "
            f"(planned at epoch {rebalance['epoch']})"
        )
    _save_json(args.json, status, "cluster status", sort_keys=True)
    down = [n["name"] for n in status["nodes"] if n["state"] != "up"]
    if down:
        print(f"down: {', '.join(down)}", file=sys.stderr)
    return EXIT_OK


def cmd_rebalance(args) -> int:
    """Plan (via the router) and execute the pending container moves."""
    from repro.frontdoor.rebalance import execute_plan
    from repro.net import messages as m

    with _net_client(args.route, args) as net:
        plan = net.call_json(m.REBALANCE_PLAN, {})
        addresses = plan.pop("addresses", {})
        total = len(plan["steps"])
        pending = sum(1 for s in plan["steps"] if not s["done"])
        print(
            f"plan at epoch {plan['epoch']}: {total} step(s), "
            f"{pending} pending"
        )
        if args.dry_run:
            for step in plan["steps"]:
                state = "done" if step["done"] else "pending"
                print(
                    f"  {step['origin']} container {step['container_id']} "
                    f"-> {step['dst']}  [{state}]"
                )
            return EXIT_OK
        report = execute_plan(
            plan, addresses,
            ack=lambda step_id: net.call_json(m.REBALANCE_ACK, {"id": step_id}),
            retry=net.retry, limit=args.limit,
        )
    print(
        f"executed {report['executed']} step(s); "
        f"{report['pending']} still pending"
        + (f", {len(report['failed'])} failed" if report["failed"] else "")
    )
    for failure in report["failed"]:
        print(f"  failed {failure['id']}: {failure['error']}", file=sys.stderr)
    _save_json(args.report_json, report, "rebalance report")
    return EXIT_ERROR if report["failed"] else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DEBAR de-duplicating backup vault (paper reproduction)",
        epilog=(
            "exit codes: 0 success, 1 operational error, 2 usage error, "
            "3 corruption found (verify/audit/scrub), 4 serve could not bind"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, remote_ok: bool = False):
        if remote_ok:
            p.add_argument("--vault", default=None, help="vault directory")
            p.add_argument(
                "--connect",
                default=None,
                metavar="HOST:PORT",
                help="run against a `repro serve` daemon or a `repro "
                "route` front door instead of a local vault (exactly one "
                "of --vault/--connect)",
            )
            p.add_argument(
                "--client",
                default=None,
                metavar="NAME",
                help="client name presented in the handshake; must match "
                "the tenant name on a daemon running with --tenant",
            )
            p.add_argument(
                "--token",
                default=None,
                help="tenant token for a daemon running with --tenant",
            )
            p.add_argument(
                "--connect-timeout",
                type=float,
                default=None,
                metavar="SECONDS",
                help="TCP connect budget per attempt (a down node fails "
                "fast instead of hanging the full request timeout)",
            )
        else:
            p.add_argument("--vault", required=True, help="vault directory")

    def telemetry_opts(p):
        p.add_argument(
            "--telemetry",
            action="store_true",
            help="collect metrics for this invocation (persisted in the vault)",
        )
        p.add_argument(
            "--telemetry-json",
            default=None,
            metavar="PATH",
            help="also write the telemetry snapshot JSON to PATH",
        )

    def add_backup(parent, trace: bool):
        p = parent.add_parser(
            "backup", help="back up files/directories under a job name"
        )
        common(p, remote_ok=True)
        p.add_argument("--job", required=True)
        p.add_argument("paths", nargs="+")
        telemetry_opts(p)
        p.set_defaults(func=cmd_backup, trace=trace)
        return p

    def add_restore(parent, trace: bool):
        p = parent.add_parser("restore", help="restore one run")
        common(p, remote_ok=True)
        p.add_argument("--run", type=int, default=None,
                       help="run to restore from the live catalog")
        p.add_argument(
            "--as-of", type=int, default=None, dest="as_of", metavar="RUN",
            help="point-in-time restore: the live catalog when it still "
            "records RUN, else the archived delta chain (works with the "
            "origin vault destroyed); exactly one of --run/--as-of",
        )
        p.add_argument(
            "--job", default=None,
            help="job whose chain records --run (run ids are per-vault: "
            "required to disambiguate a colliding id behind a router)",
        )
        p.add_argument(
            "--origin", default=None, metavar="NODE",
            help="origin node of the archived chain (disambiguates "
            "--as-of when two origins retain the same run id)",
        )
        p.add_argument("--dest", required=True)
        p.add_argument("--strip-prefix", default="/")
        p.add_argument(
            "--replica",
            action="append",
            default=None,
            metavar="[NAME=]HOST:PORT",
            help="replica daemon to fall through to when the primary "
            "misses or times out (repeatable; failover restore)",
        )
        telemetry_opts(p)
        p.set_defaults(func=cmd_restore, trace=trace)
        return p

    add_backup(sub, trace=False)

    p = sub.add_parser("list", aliases=["runs"], help="list recorded runs")
    common(p, remote_ok=True)
    p.add_argument("--job", default=None)
    p.add_argument(
        "--json", action="store_true",
        help="emit one JSON object per run (run_id, job, timestamp, "
        "files, logical_bytes, transferred_bytes, chunks)",
    )
    p.set_defaults(func=cmd_list)

    add_restore(sub, trace=False)

    p = sub.add_parser("verify", help="check every catalogued fingerprint resolves")
    common(p, remote_ok=True)
    p.add_argument(
        "--deep", action="store_true", help="also re-hash every referenced payload"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "audit", help="sweep every store invariant and report all findings"
    )
    common(p)
    p.add_argument(
        "--deep", action="store_true", help="also re-hash every referenced payload"
    )
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("stats", help="vault-level accounting")
    common(p, remote_ok=True)
    telemetry_opts(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("forget", help="drop a run from the catalog (retention)")
    common(p, remote_ok=True)
    p.add_argument("--run", type=int, required=True)
    p.add_argument(
        "--job", default=None,
        help="job whose chain records --run (run ids are per-vault: "
        "required to disambiguate a colliding id behind a router)",
    )
    p.add_argument(
        "--gc", action="store_true",
        help="run copy-forward GC in the same invocation, closing the "
        "orphan window between forget and the next gc (DESIGN.md §15.6)",
    )
    p.add_argument("--rewrite-threshold", type=float, default=0.5,
                   help="gc rewrite threshold (with --gc)")
    p.set_defaults(func=cmd_forget)

    p = sub.add_parser("gc", help="reclaim space from unreferenced chunks")
    common(p, remote_ok=True)
    p.add_argument("--rewrite-threshold", type=float, default=0.5)
    telemetry_opts(p)
    p.set_defaults(func=cmd_gc)

    p = sub.add_parser(
        "scrub", help="sweep stored media for bit rot; optionally repair"
    )
    common(p)
    p.add_argument(
        "--repair",
        action="store_true",
        help="heal what an intact source covers (chunk log or --peer "
        "replicas); without it the pass is read-only",
    )
    p.add_argument(
        "--peer",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="replica vault daemon to fetch replacement chunks from "
        "(repeatable)",
    )
    p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="check at most N records this pass; the cursor resumes the "
        "next pass where this one stopped",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="MB_PER_S",
        help="cap the scrub read rate (MB/s)",
    )
    p.add_argument(
        "--report-json",
        default=None,
        metavar="PATH",
        help="also write the scrub report JSON to PATH",
    )
    p.add_argument(
        "--reset-cursor",
        action="store_true",
        help="discard the saved cursor and sweep from the beginning",
    )
    telemetry_opts(p)
    p.set_defaults(func=cmd_scrub, trace=False)

    def lifecycle_opts(p):
        p.add_argument(
            "--min-age", type=int, default=1, metavar="RUNS",
            help="runs since a container was first referenced before it "
            "may go cold",
        )
        p.add_argument(
            "--min-idle", type=int, default=0, metavar="RUNS",
            help="runs since a container was last referenced before it "
            "may go cold (0 = the newest run's containers qualify too)",
        )

    p = sub.add_parser(
        "migrate", help="move aged sealed containers to the cold tier"
    )
    common(p)
    p.add_argument(
        "--cold-root", default=None, metavar="PATH",
        help="object-store bucket directory (default <vault>/cold; "
        "persisted in the catalog, so later commands re-attach it)",
    )
    lifecycle_opts(p)
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="migrate at most N containers this pass")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would move without moving anything")
    p.add_argument("--report-json", default=None, metavar="PATH",
                   help="also write the migration report JSON to PATH")
    telemetry_opts(p)
    p.set_defaults(func=cmd_migrate, trace=False)

    p = sub.add_parser(
        "tier-status", help="per-tier placement and lifecycle scores"
    )
    common(p)
    lifecycle_opts(p)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the tier status JSON to PATH")
    p.set_defaults(func=cmd_tier_status)

    p = sub.add_parser("recover-index", help="rebuild the index from containers")
    common(p)
    p.set_defaults(func=cmd_recover_index)

    p = sub.add_parser(
        "serve", help="host the vault for remote clients (repro.net protocol)"
    )
    common(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listening port (0 = ephemeral)")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="write the bound port here once listening")
    p.add_argument("--node-name", default="node",
                   help="this node's name on the placement ring")
    p.add_argument(
        "--replicate-to",
        action="append",
        default=None,
        metavar="[NAME=]HOST:PORT",
        help="peer daemon to replicate sealed containers to (repeatable); "
        "enables the async replication queue",
    )
    p.add_argument("--replication-factor", type=int, default=2,
                   help="copies per container, this node included")
    p.add_argument(
        "--archive", action="store_true",
        help="archive role: accept DELTA_PUSH chains from origin vaults "
        "and serve point-in-time restores from them (DESIGN.md §15)",
    )
    p.add_argument(
        "--archive-to",
        action="append",
        default=None,
        metavar="[NAME=]HOST:PORT",
        help="archive daemon to ship per-run deltas to (repeatable); "
        "enables the async incremental-forever shipping queue",
    )
    p.add_argument(
        "--retention", default=None, metavar="SPEC",
        help="archive retention policy, e.g. keep-last=7,daily=14,"
        "weekly=8; expired points merge forward so every surviving "
        "--as-of stays restorable (implies --archive)",
    )
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="graceful-shutdown budget for draining in-flight "
                   "requests and the replication queue")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="admission control: max concurrently executing "
                   "requests before shedding ERROR/Busy")
    p.add_argument("--max-buffered-bytes", type=int,
                   default=256 * 1024 * 1024,
                   help="admission control: max chunk payload bytes parked "
                   "in open sessions before appends shed Busy")
    p.add_argument("--session-ttl", type=float, default=900.0,
                   metavar="SECONDS",
                   help="idle sessions older than this are swept "
                   "(abandoned-client reclamation; 0 disables)")
    p.add_argument(
        "--tenant",
        action="append",
        default=None,
        metavar="NAME=TOKEN[:QUOTA_BYTES]",
        help="register a tenant (repeatable); when any are set, clients "
        "must HELLO with a matching client name + token, and each "
        "tenant's buffered session bytes are capped by its quota",
    )
    p.add_argument(
        "--advertise",
        default=None,
        metavar="HOST:PORT",
        help="announce this node to a `repro route` front door after "
        "binding (NODE_JOIN with --node-name and the bound address)",
    )
    p.add_argument(
        "--cold-root", default=None, metavar="PATH",
        help="attach (and persist) an object-store cold tier at PATH "
        "before serving; migrated containers stay restorable remotely",
    )
    telemetry_opts(p)
    p.set_defaults(func=cmd_serve, trace=False)

    p = sub.add_parser(
        "rebuild",
        help="reconstruct a lost node's vault from surviving replicas",
    )
    p.add_argument("--vault", required=True,
                   help="empty directory to rebuild the vault into")
    p.add_argument("--node", required=True,
                   help="name of the lost node (as peers knew it)")
    p.add_argument(
        "--peer",
        action="append",
        required=True,
        metavar="[NAME=]HOST:PORT",
        help="surviving peer daemon to pull replicas from (repeatable)",
    )
    p.add_argument("--report-json", default=None, metavar="PATH",
                   help="also write the rebuild report JSON to PATH")
    p.set_defaults(func=cmd_rebuild)

    p = sub.add_parser(
        "repl-status",
        help="replication state: replica inventory + outbound queue",
    )
    common(p, remote_ok=True)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the status JSON to PATH")
    p.set_defaults(func=cmd_repl_status)

    p = sub.add_parser(
        "archive-status",
        help="archive state: stored delta chains + outbound shipping queue",
    )
    common(p, remote_ok=True)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the status JSON to PATH")
    p.set_defaults(func=cmd_archive_status)

    p = sub.add_parser(
        "route", help="run the cluster front door (hash-routed request router)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listening port (0 = ephemeral)")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="write the bound port here once listening")
    p.add_argument("--state", required=True, metavar="DIR",
                   help="directory for membership + rebalance state")
    p.add_argument(
        "--node",
        action="append",
        default=None,
        metavar="NAME=HOST:PORT",
        help="seed cluster member (repeatable); nodes can also join "
        "themselves with `serve --advertise`",
    )
    p.add_argument("--replication-factor", type=int, default=2,
                   help="replica-set size the placement ring assumes")
    p.add_argument("--probe-interval", type=float, default=2.0,
                   metavar="SECONDS", help="health-check sweep period")
    p.add_argument("--probe-timeout", type=float, default=1.0,
                   metavar="SECONDS",
                   help="per-probe connect + response budget")
    p.add_argument("--mark-down-after", type=int, default=3, metavar="K",
                   help="consecutive failed probes before a node is "
                   "marked down")
    p.add_argument("--proxy-timeout", type=float, default=60.0,
                   metavar="SECONDS",
                   help="round-trip budget per proxied frame")
    telemetry_opts(p)
    p.set_defaults(func=cmd_route, trace=False)

    p = sub.add_parser(
        "cluster-status",
        help="membership, health and rebalance progress from the router",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="the `repro route` daemon to ask")
    p.add_argument("--connect-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="TCP connect budget per attempt")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the status JSON to PATH")
    p.set_defaults(func=cmd_cluster_status)

    p = sub.add_parser(
        "rebalance",
        help="execute the router's pending container move plan",
    )
    p.add_argument("--route", required=True, metavar="HOST:PORT",
                   help="the `repro route` daemon planning the moves")
    p.add_argument("--connect-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="TCP connect budget per attempt")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="execute at most N steps this invocation (the "
                   "plan resumes where it stopped)")
    p.add_argument("--dry-run", action="store_true",
                   help="print the plan without moving anything")
    p.add_argument("--report-json", default=None, metavar="PATH",
                   help="also write the execution report JSON to PATH")
    p.set_defaults(func=cmd_rebalance)

    p = sub.add_parser(
        "trace", help="run a backup/restore with tracing and print the span tree"
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    add_backup(trace_sub, trace=True)
    add_restore(trace_sub, trace=True)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "vault") and hasattr(args, "connect"):
        if bool(args.vault) == bool(args.connect):
            # parser.error prints usage and exits EXIT_USAGE (2).
            parser.error("exactly one of --vault or --connect is required")
    try:
        return args.func(args)
    except CorruptionError as exc:
        # THE corruption -> exit-code mapping: every command that trips
        # over rotted media funnels through this one typed handler.
        print(f"corruption: {exc}", file=sys.stderr)
        return EXIT_CORRUPTION
    except DiskFullError as exc:
        print(f"error: disk full: {exc} (free space and re-run; the "
              "interrupted work resumes)", file=sys.stderr)
        return EXIT_ERROR
    except (VaultError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ProtocolError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
