"""repro.system.catalog: the one owner of ``catalog.json``.

Format stability (the bytes the previous commit wrote still load, and the
same history still writes them), the typed damage path (a torn or
malformed catalog is ``CorruptionError`` / exit 3, never a traceback),
commit atomicity, the tolerant view of a *mirrored* document, and a
layering check that keeps the format known to this one module.
"""

import ast
import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.cli import main
from repro.director.metadata import FileIndexEntry, FileMetadata
from repro.durability.errors import CorruptionError
from repro.durability.fsshim import FaultRule, FaultyFs, atomic_write
from repro.system import DebarVault, VaultError
from repro.system.catalog import (
    Catalog,
    VaultRun,
    check_document,
    entry_from_doc,
    entry_to_doc,
    mirrored_run_count,
    mirrored_runs,
    read_document,
)
from repro.workloads import FileTreeGenerator
from tests.catalog_scenario import SRC_PLACEHOLDER, drive

PARENT_CATALOG = Path(__file__).parent / "data" / "catalog_parent.json"
SRC = Path(__file__).parent.parent / "src" / "repro"
GEOMETRY = dict(index_n_bits=12, index_bucket_bytes=512, container_bytes=1 << 20)


def open_catalog(root):
    return Catalog(root, None, **GEOMETRY)


def make_source(tmp_path, seed=1):
    src = tmp_path / "src"
    FileTreeGenerator(seed=seed).generate(
        src, n_files=3, n_dirs=1, min_size=4 * 1024, max_size=12 * 1024
    )
    return src


def entry(path="/data/f", fps=(b"\x01" * 20, b"\x02" * 20)):
    return FileIndexEntry(FileMetadata(path, 10, 0o644, 1.5), list(fps))


def run(run_id, job, files=None):
    return VaultRun(run_id, job, 100.0 * run_id, 10, 5, files or [entry()])


class TestFormatStability:
    def test_parent_written_catalog_loads_and_resaves_byte_identically(self, tmp_path):
        shutil.copy(PARENT_CATALOG, tmp_path / "catalog.json")
        catalog = open_catalog(tmp_path)
        assert [(r.run_id, r.job) for r in catalog.runs()] == [
            (2, "mail"), (3, "docs"), (4, "docs"),
        ]
        assert catalog.next_run_id() == 5
        assert catalog.cold["root"] == "cold"
        assert catalog.index_n_bits == 2  # the file wins over GEOMETRY
        (tmp_path / "catalog.json").unlink()
        catalog.save()
        assert (tmp_path / "catalog.json").read_bytes() == PARENT_CATALOG.read_bytes()

    def test_same_history_writes_the_bytes_the_parent_wrote(self, tmp_path):
        # backup x3 / forget / backup / cold tier / index scaling /
        # degraded / reopen — see tests/catalog_scenario.py for the recipe
        # that produced the expectation from the parent tree.
        text = drive(tmp_path / "vault", tmp_path / "src")
        assert SRC_PLACEHOLDER in text
        assert text == PARENT_CATALOG.read_text()

    @given(
        st.builds(
            FileIndexEntry,
            st.builds(
                FileMetadata,
                path=st.text(min_size=1),
                size=st.integers(min_value=0),
                mode=st.integers(min_value=0, max_value=0o7777),
                mtime=st.floats(allow_nan=False, allow_infinity=False),
            ),
            st.lists(st.binary(min_size=20, max_size=20)),
        )
    )
    def test_entry_round_trips_through_its_document(self, e):
        doc = json.loads(json.dumps(entry_to_doc(e)))
        assert entry_from_doc(doc) == e


class TestRuns:
    def test_find_with_and_without_job(self, tmp_path):
        catalog = open_catalog(tmp_path)
        catalog.record(run(1, "x"))
        catalog.record(run(2, "y"))
        assert catalog.find(2).job == "y"
        assert catalog.find(2, job="y").files == [entry()]
        assert [r.run_id for r in catalog.runs("x")] == [1] and catalog.runs("z") == []
        # The CLI prints these and the daemon sends them in its ERROR frame.
        with pytest.raises(VaultError, match=r"^no run 2 for job 'x'$"):
            catalog.find(2, job="x")
        with pytest.raises(VaultError, match=r"^no run 3 for this vault$"):
            catalog.find(3)

    def test_forgotten_ids_are_not_reused_across_reopen(self, tmp_path):
        catalog = open_catalog(tmp_path)
        catalog.record(run(catalog.next_run_id(), "x"))
        catalog.record(run(catalog.next_run_id(), "x"))
        catalog.forget(2, job="x")
        reopened = open_catalog(tmp_path)
        assert len(reopened) == 1 and reopened.next_run_id() == 3

    def test_mark_degraded_persists_and_is_idempotent(self, tmp_path):
        catalog = open_catalog(tmp_path)
        lost = b"\x07" * 20
        catalog.record(run(1, "x", [entry("/a", [lost]), entry("/b")]))
        catalog.record(run(2, "x", [entry("/a", [lost])]))
        assert catalog.mark_degraded(lost) == [(1, "/a"), (2, "/a")]
        committed = (tmp_path / "catalog.json").read_bytes()
        assert catalog.mark_degraded(lost) == []
        assert (tmp_path / "catalog.json").read_bytes() == committed
        files = [f for r in read_document(tmp_path)["runs"] for f in r["files"]]
        assert [f.get("degraded", False) for f in files] == [True, False, True]
        # Degraded files still parse: the flag is advisory.
        assert len(open_catalog(tmp_path).find(1).files) == 2

    def test_snapshot_is_the_committed_file_and_shares_nothing(self, tmp_path):
        catalog = open_catalog(tmp_path)
        catalog.record(run(1, "x"))
        snap = catalog.snapshot()
        assert snap == json.loads((tmp_path / "catalog.json").read_text())
        snap["runs"].clear()
        assert len(catalog) == 1 and len(catalog.snapshot()["runs"]) == 1


class TestDamage:
    """DESIGN.md §10: damage -> CorruptionError -> exit 3, one typed path."""

    def good(self):
        return {"version": 1, **GEOMETRY, "runs": []}

    @pytest.mark.parametrize(
        "text",
        [
            '{"version": 1, "index_n_bits": 12, "ru',  # torn mid-write
            "[]",
            "null",
            '{"version": 1, "index_bucket_bytes": 512, "container_bytes": 1, "runs": []}',
            '{"version": "1", "index_n_bits": 12, "index_bucket_bytes": 512,'
            ' "container_bytes": 1, "runs": []}',
            '{"index_n_bits": 12, "index_bucket_bytes": 512, "container_bytes": 1,'
            ' "runs": []}',
            '{"version": 1, "index_n_bits": 12, "index_bucket_bytes": 512,'
            ' "container_bytes": 1, "runs": {}}',
            '{"version": 1, "index_n_bits": 12, "index_bucket_bytes": 512,'
            ' "container_bytes": 1, "runs": [{"run_id": 1, "job": "x"}]}',
        ],
        ids=["torn", "list", "null", "no-n-bits", "str-version", "no-version",
             "runs-not-list", "run-without-files"],
    )
    def test_damaged_catalog_is_corruption(self, tmp_path, text):
        (tmp_path / "catalog.json").write_text(text)
        with pytest.raises(CorruptionError) as exc:
            DebarVault(tmp_path)
        assert exc.value.artifact == "catalog"

    def test_unsupported_version_stays_an_operational_error(self, tmp_path):
        (tmp_path / "catalog.json").write_text(json.dumps({**self.good(), "version": 2}))
        with pytest.raises(VaultError, match="catalog version 2 unsupported"):
            DebarVault(tmp_path)

    def test_stray_temp_file_is_ignored(self, tmp_path):
        (tmp_path / "catalog.json.tmp").write_text('{"torn')
        with DebarVault(tmp_path) as vault:
            assert vault.runs() == []
        assert check_document(read_document(tmp_path))["runs"] == []

    @pytest.mark.parametrize(
        "argv", [["list"], ["verify", "--deep"], ["scrub"]], ids=lambda a: a[0]
    )
    def test_cli_reports_a_torn_catalog_as_corruption(self, tmp_path, capsys, argv):
        vault = str(tmp_path / "vault")
        assert main(["backup", "--vault", vault, "--job", "j", str(make_source(tmp_path))]) == 0
        path = tmp_path / "vault" / "catalog.json"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        capsys.readouterr()
        assert main([*argv, "--vault", vault]) == 3
        err = capsys.readouterr().err
        assert err.startswith("corruption: ") and "Traceback" not in err

    def test_failed_commit_leaves_the_previous_catalog(self, tmp_path):
        src = make_source(tmp_path)
        with DebarVault(tmp_path / "vault") as vault:
            vault.backup("docs", [src], timestamp=1.0)
        before = (tmp_path / "vault" / "catalog.json").read_bytes()
        # after=1: let the rewrite at open through, tear the commit.
        fs = FaultyFs([FaultRule(
            op="write_file", kind="short_write", path_contains="catalog", after=1
        )])
        vault = DebarVault(tmp_path / "vault", fs=fs)
        (src / "new.bin").write_bytes(b"fresh bytes " * 700)
        with pytest.raises(OSError):
            vault.backup("docs", [src], timestamp=2.0)
        assert fs.faults_fired == 1
        vault.close()
        assert (tmp_path / "vault" / "catalog.json").read_bytes() == before
        with DebarVault(tmp_path / "vault") as reopened:
            assert [r.run_id for r in reopened.runs()] == [1]
            assert reopened.audit(deep=True).ok


class TestAtomicWrite:
    def test_replaces_through_a_sibling_temp_file(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_write(target, b"one")
        atomic_write(target, b"two")
        assert target.read_bytes() == b"two"
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_a_torn_write_never_reaches_the_target(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_write(target, b"old contents")
        fs = FaultyFs([FaultRule(op="write_file", kind="short_write")])
        with pytest.raises(OSError):
            atomic_write(target, b"new contents", fs)
        assert target.read_bytes() == b"old contents"
        assert (tmp_path / "state.json.tmp").read_bytes() == b"new co"
        atomic_write(target, b"new contents", fs)  # the stray is overwritten
        assert target.read_bytes() == b"new contents"

    def test_quota_is_charged_once_for_the_target(self, tmp_path):
        fs = FaultyFs(quota_bytes=100)
        for _ in range(5):
            atomic_write(tmp_path / "state.json", b"x" * 40, fs)
        assert fs.charged_bytes == 40


class TestMirroredDocuments:
    """A mirror is outside input: the tolerant view never raises."""

    def test_malformed_runs_are_skipped(self):
        good = {
            "run_id": 3, "job": "x", "timestamp": 1.0, "logical_bytes": 1,
            "transferred_bytes": 1, "files": [entry_to_doc(entry())],
        }
        doc = {"runs": [
            {"run_id": 3},                                  # no job/files
            "not a run",
            {**good, "files": [{"path": "/p"}]},            # file without indices
            {**good, "files": [{**entry_to_doc(entry()), "fingerprints": ["zz"]}]},
            good,
            {**good, "job": "y"},
            {**good, "run_id": 4},
        ]}
        found = mirrored_runs(doc, 3)
        assert [(r.run_id, r.job) for r in found] == [(3, "x"), (3, "y")]
        assert found[0].files == [entry()]
        assert mirrored_run_count(doc) == 7  # listed, not parsed

    @pytest.mark.parametrize("doc", [None, [], "x", {}, {"runs": None}, {"runs": {}}])
    def test_shapeless_documents_have_no_runs(self, doc):
        assert mirrored_runs(doc, 1) == []
        assert mirrored_run_count(doc) == 0


class TestLayering:
    """The catalog's file name and layout are known to one module."""

    def modules(self):
        for path in sorted(SRC.rglob("*.py")):
            yield path.relative_to(SRC).as_posix(), path.read_text()

    def test_only_the_catalog_module_knows_the_format(self):
        offenders = []
        for name, source in self.modules():
            if name == "system/catalog.py":
                continue
            tree = ast.parse(source)
            docstrings = {
                id(node.body[0].value)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef))
                and node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
            }
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and "catalog.json" in node.value
                    and id(node) not in docstrings
                ):
                    offenders.append(f"{name}:{node.lineno} names the catalog file")
                elif isinstance(node, ast.Attribute) and node.attr == "_catalog":
                    offenders.append(f"{name}:{node.lineno} reaches into ._catalog")
                elif isinstance(
                    node, (ast.For, ast.Assign, ast.AnnAssign, ast.Return, ast.Expr)
                ) and {"fromhex", "fingerprints"} <= {
                    getattr(n, "attr", None) or getattr(n, "value", None)
                    for n in ast.walk(node)
                    if isinstance(n, (ast.Attribute, ast.Constant))
                }:
                    offenders.append(f"{name}:{node.lineno} decodes a file index")
        assert offenders == []

    def test_state_files_are_written_through_the_one_atomic_writer(self):
        hand_rolled = [
            name
            for name, source in self.modules()
            for _ in re.finditer(r"write_text\(\s*json\.dumps\(", source)
        ]
        assert hand_rolled == ["cli.py"]  # cli._save_json: user-named report files
