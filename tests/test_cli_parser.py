"""Tests for the CLI argument surface (independent of vault state)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        assert set(sub.choices) == {
            "backup", "list", "runs", "restore", "verify", "audit", "stats",
            "forget", "gc", "scrub", "recover-index", "serve", "trace",
            "rebuild", "repl-status", "archive-status", "migrate",
            "tier-status", "route", "cluster-status", "rebalance",
        }

    def test_backup_requires_job_and_paths(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["backup", "--vault", "/v"])
        args = parser.parse_args(["backup", "--vault", "/v", "--job", "j", "/a", "/b"])
        assert args.paths == ["/a", "/b"]
        assert args.job == "j"

    def test_restore_defaults(self):
        parser = build_parser()
        args = parser.parse_args(
            ["restore", "--vault", "/v", "--run", "3", "--dest", "/d"]
        )
        assert args.run == 3
        assert args.strip_prefix == "/"

    def test_audit_deep_flag(self):
        parser = build_parser()
        args = parser.parse_args(["audit", "--vault", "/v"])
        assert args.deep is False
        args = parser.parse_args(["audit", "--vault", "/v", "--deep"])
        assert args.deep is True

    def test_gc_threshold_default(self):
        parser = build_parser()
        args = parser.parse_args(["gc", "--vault", "/v"])
        assert args.rewrite_threshold == 0.5

    def test_serve_threaded_flag_is_gone(self, capsys):
        # The thread-per-connection core was deleted; its selector is a
        # usage error, not a silently ignored flag.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--vault", "/v", "--threaded"])
        assert exc.value.code == 2
        assert "--threaded" in capsys.readouterr().err

    def test_vault_required_for_local_only_commands(self):
        parser = build_parser()
        for cmd in ("audit", "scrub", "recover-index", "serve"):
            with pytest.raises(SystemExit):
                parser.parse_args([cmd])

    def test_target_required_for_remote_capable_commands(self):
        # Remote-capable commands defer the --vault/--connect choice to
        # main(), which must reject neither/both with a usage error (2).
        for argv in (
            ["list"],
            ["verify"],
            ["stats"],
            ["list", "--vault", "/v", "--connect", "h:1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_connect_accepted_in_place_of_vault(self):
        parser = build_parser()
        args = parser.parse_args(["list", "--connect", "backuphost:7070"])
        assert args.connect == "backuphost:7070"
        assert args.vault is None

    def test_serve_flags(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--vault", "/v"])
        assert args.host == "127.0.0.1" and args.port == 0
        assert args.port_file is None
        args = parser.parse_args(
            ["serve", "--vault", "/v", "--port", "7070", "--port-file", "/tmp/p"]
        )
        assert args.port == 7070 and args.port_file == "/tmp/p"

    def test_serve_replication_flags(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--vault", "/v"])
        assert args.node_name == "node"
        assert args.replicate_to is None
        assert args.replication_factor == 2
        args = parser.parse_args([
            "serve", "--vault", "/v", "--node-name", "a",
            "--replicate-to", "b=h:1", "--replicate-to", "c=h:2",
            "--replication-factor", "3", "--drain-timeout", "5",
        ])
        assert args.node_name == "a"
        assert args.replicate_to == ["b=h:1", "c=h:2"]
        assert args.replication_factor == 3
        assert args.drain_timeout == 5.0

    def test_rebuild_flags(self):
        parser = build_parser()
        with pytest.raises(SystemExit):  # --peer is required
            parser.parse_args(["rebuild", "--vault", "/v", "--node", "a"])
        args = parser.parse_args([
            "rebuild", "--vault", "/v", "--node", "a",
            "--peer", "b=h:1", "--peer", "h:2",
        ])
        assert args.node == "a"
        assert args.peer == ["b=h:1", "h:2"]

    def test_repl_status_accepts_vault_or_connect(self):
        parser = build_parser()
        args = parser.parse_args(["repl-status", "--connect", "h:1"])
        assert args.connect == "h:1" and args.vault is None
        args = parser.parse_args(["repl-status", "--vault", "/v", "--json", "/tmp/s"])
        assert args.json == "/tmp/s"
        with pytest.raises(SystemExit) as exc:
            main(["repl-status"])
        assert exc.value.code == 2

    def test_restore_replica_flag_repeatable(self):
        parser = build_parser()
        args = parser.parse_args(
            ["restore", "--vault", "/v", "--run", "1", "--dest", "/d",
             "--replica", "b=h:1", "--replica", "h:2"]
        )
        assert args.replica == ["b=h:1", "h:2"]

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_telemetry_flags_default_off(self):
        parser = build_parser()
        for argv in (
            ["backup", "--vault", "/v", "--job", "j", "/a"],
            ["restore", "--vault", "/v", "--run", "1", "--dest", "/d"],
            ["stats", "--vault", "/v"],
            ["gc", "--vault", "/v"],
        ):
            args = parser.parse_args(argv)
            assert args.telemetry is False
            assert args.telemetry_json is None
        args = parser.parse_args(["stats", "--vault", "/v", "--telemetry",
                                  "--telemetry-json", "/tmp/t.json"])
        assert args.telemetry is True
        assert args.telemetry_json == "/tmp/t.json"

    def test_trace_wraps_backup_and_restore(self):
        parser = build_parser()
        args = parser.parse_args(
            ["trace", "backup", "--vault", "/v", "--job", "j", "/a"]
        )
        assert args.trace is True
        assert args.job == "j" and args.paths == ["/a"]
        args = parser.parse_args(
            ["trace", "restore", "--vault", "/v", "--run", "2", "--dest", "/d"]
        )
        assert args.trace is True and args.run == 2
        # Plain backup/restore are untraced.
        assert parser.parse_args(
            ["backup", "--vault", "/v", "--job", "j", "/a"]
        ).trace is False
        # The trace wrapper requires a sub-command.
        with pytest.raises(SystemExit):
            parser.parse_args(["trace"])

    def test_scrub_flags_default_readonly(self):
        parser = build_parser()
        args = parser.parse_args(["scrub", "--vault", "/v"])
        assert args.repair is False
        assert args.peer is None
        assert args.limit is None and args.rate is None
        assert args.reset_cursor is False
        args = parser.parse_args([
            "scrub", "--vault", "/v", "--repair",
            "--peer", "a:1", "--peer", "b:2",
            "--limit", "500", "--rate", "8",
            "--report-json", "/tmp/r.json", "--reset-cursor",
        ])
        assert args.repair is True
        assert args.peer == ["a:1", "b:2"]
        assert args.limit == 500 and args.rate == 8.0
        assert args.report_json == "/tmp/r.json"
        assert args.reset_cursor is True

    def test_migrate_flags(self):
        parser = build_parser()
        args = parser.parse_args(["migrate", "--vault", "/v"])
        assert args.cold_root is None
        assert args.min_age == 1 and args.min_idle == 0
        assert args.limit is None and args.dry_run is False
        args = parser.parse_args([
            "migrate", "--vault", "/v", "--cold-root", "/bucket",
            "--min-age", "2", "--min-idle", "1", "--limit", "5",
            "--dry-run", "--report-json", "/tmp/m.json",
        ])
        assert args.cold_root == "/bucket"
        assert args.min_age == 2 and args.min_idle == 1
        assert args.limit == 5 and args.dry_run is True
        assert args.report_json == "/tmp/m.json"

    def test_tier_status_flags(self):
        parser = build_parser()
        with pytest.raises(SystemExit):  # local-only: --vault required
            parser.parse_args(["tier-status"])
        args = parser.parse_args(
            ["tier-status", "--vault", "/v", "--json", "/tmp/t.json"]
        )
        assert args.json == "/tmp/t.json"
        assert args.min_age == 1 and args.min_idle == 0

    def test_serve_cold_root_flag(self):
        parser = build_parser()
        assert parser.parse_args(["serve", "--vault", "/v"]).cold_root is None
        args = parser.parse_args(
            ["serve", "--vault", "/v", "--cold-root", "/bucket"]
        )
        assert args.cold_root == "/bucket"

    def test_audit_refuses_missing_vault(self, tmp_path, capsys):
        # Opening a vault creates one; the auditor must not conjure an
        # empty vault out of a mistyped path and report it clean.
        missing = tmp_path / "no-such-vault"
        assert main(["audit", "--vault", str(missing)]) == 1
        assert "no vault" in capsys.readouterr().err
        assert not missing.exists()
