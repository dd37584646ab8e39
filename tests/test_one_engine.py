"""One DEBAR engine under every facade.

``DebarVault``, ``DebarSystem`` and each ``DebarCluster`` node run the same
:class:`~repro.server.backup_server.BackupServer`.  The cross-facade test
backs one generated tree up through all three and requires the same
answer from each; the layering tests keep a second wiring of the engine
from growing back.
"""

import ast
import inspect
from pathlib import Path

import pytest

from repro.server import BackupServerConfig
from repro.system import DebarCluster, DebarSystem, DebarVault
from repro.workloads import FileTreeGenerator, mutate_tree

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _stored(containers):
    return {r.fingerprint: c.get(r.fingerprint) for c in containers for r in c.records}


class TestSameAnswerFromEveryFacade:
    @pytest.fixture(scope="class")
    def outcomes(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("facades")
        src = tmp / "src"
        FileTreeGenerator(seed=21).generate(
            src, n_files=8, n_dirs=3, min_size=4 * 1024, max_size=48 * 1024
        )
        config = BackupServerConfig(
            index_n_bits=10, index_bucket_bytes=512, container_bytes=64 * 1024,
            materialize=True,
        )
        system = DebarSystem(config=config)
        system_job = system.define_job("docs", client="c", dataset=[src])
        vault = DebarVault(tmp / "vault", container_bytes=64 * 1024)
        cluster = DebarCluster(w_bits=0, config=config)
        cluster_job = cluster.director.define_job("docs", "c", [str(src)])

        outcomes = {"system": [], "vault": [], "cluster": []}
        for generation in range(2):
            if generation:
                mutate_tree(src, seed=22, edit_fraction=0.4, new_files=2, delete_files=1)
            run, _ = system.run_backup(system_job, timestamp=generation)
            system.run_dedup2()
            outcomes["system"].append(
                (system.director.metadata.files_for_run(run.run_id), run)
            )
            vrun = vault.backup("docs", [src], timestamp=generation)
            outcomes["vault"].append((vrun.files, vrun))
            cluster.backup_datasets([cluster_job], timestamp=generation)
            cluster.run_dedup2()
            crun = cluster.director.chain(cluster_job).latest()
            outcomes["cluster"].append(
                (cluster.director.metadata.files_for_run(crun.run_id), crun)
            )

        system.restore_run(run, tmp / "system", strip_prefix=tmp)
        vault.restore(vrun.run_id, tmp / "vault_out", strip_prefix=tmp)
        cluster.restore_run_files(crun.run_id, tmp / "cluster", strip_prefix=tmp)
        stored = {
            "system": _stored(system.repository.iter_containers()),
            "vault": _stored(
                vault.repository.fetch(cid) for cid in vault.repository.container_ids()
            ),
            "cluster": _stored(cluster.repository.iter_containers()),
        }
        restored = {
            name: {
                p.relative_to(tmp / out): p.read_bytes()
                for p in (tmp / out).rglob("*") if p.is_file()
            }
            for name, out in (("system", "system"), ("vault", "vault_out"),
                              ("cluster", "cluster"))
        }
        source = {
            p.relative_to(tmp): p.read_bytes() for p in src.rglob("*") if p.is_file()
        }
        yield outcomes, stored, restored, source
        vault.close()

    def test_identical_file_indices(self, outcomes):
        runs = outcomes[0]
        for generation in range(2):
            per_facade = {
                name: {e.metadata.path: e.fingerprints for e in runs[name][generation][0]}
                for name in runs
            }
            assert per_facade["system"] == per_facade["vault"] == per_facade["cluster"]
            assert per_facade["vault"]  # the tree was not empty

    def test_identical_dedup1_volumes(self, outcomes):
        runs = outcomes[0]
        for generation in range(2):
            volumes = {
                name: (runs[name][generation][1].logical_bytes,
                       runs[name][generation][1].transferred_bytes)
                for name in runs
            }
            assert volumes["system"] == volumes["vault"] == volumes["cluster"]
        # The second run was filtered against the first: not all transferred.
        logical, transferred = volumes["vault"]
        assert 0 < transferred < logical

    def test_identical_stored_chunks(self, outcomes):
        stored = outcomes[1]
        assert stored["system"] == stored["vault"] == stored["cluster"]
        assert stored["vault"] and all(stored["vault"].values())

    def test_byte_identical_restores(self, outcomes):
        restored, source = outcomes[2], outcomes[3]
        assert restored["system"] == restored["vault"] == restored["cluster"] == source


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class TestLayering:
    def test_engine_is_constructed_only_by_the_backup_server(self):
        sites = sorted(
            (name, _called_name(node))
            for name, tree in _modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _called_name(node) in ("TwoPhaseDeduplicator", "ChunkStore")
        )
        assert sites == [
            ("server/backup_server.py", "ChunkStore"),
            ("server/backup_server.py", "TwoPhaseDeduplicator"),
        ]

    def test_removed_modules_stay_removed(self):
        gone = {"repro.server.file_store", "repro.net.exchange", "repro.director.ensemble"}
        for name, tree in _modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    imported = {node.module} | {f"{node.module}.{a.name}" for a in node.names}
                elif isinstance(node, ast.Import):
                    imported = {a.name for a in node.names}
                else:
                    continue
                assert not imported & gone, f"{name} imports {imported & gone}"
        for module in gone:
            assert not (SRC.parent / (module.replace(".", "/") + ".py")).exists()

    @pytest.mark.parametrize(
        "facade", ["system/debar.py", "system/cluster.py", "system/vault.py"]
    )
    def test_each_facade_has_one_dedup1_call_site(self, facade):
        tree = ast.parse((SRC / facade).read_text())
        sites = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "backup"
            and "server" in ast.unparse(node.func.value)
        ]
        assert len(sites) == 1

    def test_cluster_has_no_test_only_options(self):
        params = inspect.signature(DebarCluster.__init__).parameters
        assert "wire_exchange" not in params and "n_directors" not in params
