"""The four workloads: one phase script over four access paths.

Every workload runs the same phases on a fresh deployment (one *cycle*):

    set-up  -> fresh backup -> unchanged re-backup -> G edited generations
            -> cross-job backup of a 90%-identical copy -> M run listings
            -> R restores (alternating latest / first run) -> deep verify
            -> daemon shutdown -> full scrub

and repeats whole cycles until the time budget is spent; a metric is computed
per cycle and the run reports the median over cycles.  What differs is the
access path, the shape of the data and the number of clients - which is what
decides which layer dominates (see README.md).  Every timed phase is followed,
outside the timer, by its correctness check; a failed check or a raised op
aborts the workload.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import datagen
import trace as tracing

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
WORK_ROOT = HERE / ".work"
MIB = 1 << 20

#: Share of the issue's nominal sizes (16 MiB bulk set, 3000 small files,
#: 256 KiB tenants) that fits the driver's cap of ~37 s per run.
SCALE = 0.125

BACKUP_PHASES = ("fresh", "dup", "incr", "crossjob")

#: A run never reports a median over fewer cycles than this, however short
#: ``--seconds`` is (a per-layer run pairs each traced cycle with a reference).
MIN_CYCLES, MIN_TRACED_CYCLES = 3, 2


@dataclass(frozen=True)
class Spec:
    why: str
    path: str        # local | cli | remote | routed
    data: str        # bulk | small | tenant
    clients: int     # closed-loop client threads (<= nproc)
    jobs: int        # data sets (= jobs) per client
    gens: int        # edited generations
    restores: int    # restores per data set
    metas: int       # run listings per data set
    verifies: int    # deep verifies per cycle
    scrubs: int      # full scrubs per cycle


WORKLOADS: Dict[str, Spec] = {
    "local-bulk": Spec(
        "in-process vault API on a few large files: per-byte work (chunking, "
        "SHA-1, CRC framing, container packing) dominates; start-up and catalog do not",
        "local", "bulk", 1, 1, gens=3, restores=30, metas=40, verifies=5, scrubs=2),
    "cli-smallfiles": Spec(
        "one CLI process per op on hundreds of 1-16 KiB files: fixed costs (imports, "
        "catalog parse/rewrite, per-file stat, per-call chunker set-up) dominate",
        "cli", "small", 1, 1, gens=2, restores=2, metas=3, verifies=1, scrubs=1),
    "remote-bulk": Spec(
        "one client connection to one serve daemon, same data as local-bulk: the wire "
        "(frame codec, filter batches, append window, commit replay) is the difference",
        "remote", "bulk", 1, 1, gens=2, restores=40, metas=100, verifies=5, scrubs=3),
    "routed-tenants": Spec(
        "2 closed-loop clients x 3 small tenants through route (proxy, RF=1) and 2 "
        "nodes: per-request cost and the vault lock dominate; the only contended workload",
        "routed", "tenant", 2, 3, gens=4, restores=20, metas=30, verifies=10, scrubs=8),
}


class OpFailed(Exception):
    """A timed op raised, was refused, or failed its correctness check."""


class InjectedFailure(Exception):
    """Raised on purpose by ``run.py --check`` to prove clean-up happens."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# -- daemons ------------------------------------------------------------------------
class Daemon:
    """A real ``python -m repro serve|route`` subprocess on loopback."""

    def __init__(self, name: str, argv: Sequence[str], work: Path, telemetry: bool) -> None:
        self.name = name
        self.port_file = work / f"{name}.port"
        self.telemetry_json = work / f"{name}.telemetry.json" if telemetry else None
        argv = [*argv, "--port-file", str(self.port_file)]
        if telemetry:
            argv += ["--telemetry", "--telemetry-json", str(self.telemetry_json)]
        self.log = open(work / f"{name}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=work, env=child_env(), stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.port: Optional[int] = None
        self.peak_rss_mib = 0.0
        self.cpu = (0.0, 0.0)

    def wait_ready(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and self.proc.poll() is None:
            text = self.port_file.read_text().strip() if self.port_file.exists() else ""
            if text:
                self.port = int(text)
                return
            time.sleep(0.02)
        raise OpFailed(f"daemon {self.name} did not come up (see {self.log.name})")

    def stop(self) -> None:
        """terminate -> wait -> kill; always reaps."""
        if self.proc.poll() is None:
            with contextlib.suppress(OSError, RuntimeError):
                self.peak_rss_mib = tracing.proc_peak_rss_mib(self.proc.pid)
                self.cpu = tracing.proc_cpu(self.proc.pid)
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


# -- access paths -------------------------------------------------------------------
def _scrub_in_process(vault_dirs: Sequence[Path]) -> int:
    from repro.durability.scrubber import Scrubber
    from repro.system.vault import DebarVault

    read = 0
    for root in vault_dirs:
        with DebarVault(root) as vault:
            report = Scrubber(vault).run()
        if not report.clean or report.partial:
            raise OpFailed(f"scrub of {root}: {report.summary()}")
        read += report.bytes_read
    return read


class LocalPath:
    """In-process ``DebarVault``: backups share one open handle; every
    restore, listing, verify and scrub pays its own open and close."""

    daemons: List[Daemon] = []
    registry = None

    def __init__(self, work: Path) -> None:
        self.vault_dirs = [work / "vault"]
        self._vault = None

    def _open(self):
        from repro.system.vault import DebarVault

        return DebarVault(self.vault_dirs[0])

    def start(self) -> None:
        self._vault = self._open()

    def client(self, index: int) -> "LocalPath":
        return self

    def _release(self) -> None:
        if self._vault is not None:
            self._vault.close()
            self._vault = None

    def backup(self, job: str, path: str, timestamp: float) -> int:
        if self._vault is None:
            self._vault = self._open()
        return self._vault.backup(job, [path], timestamp=timestamp).run_id

    def restore(self, job: str, run_id: int, dest: str) -> None:
        self._release()
        with self._open() as vault:
            vault.restore(run_id, dest, job=job)

    def runs(self, job: str) -> int:
        self._release()
        with self._open() as vault:
            return len(vault.runs(job))

    def verify(self) -> int:
        self._release()
        with self._open() as vault:
            return vault.verify(deep=True)["runs"]

    def stop(self) -> None:
        self._release()

    def scrub(self) -> int:
        return _scrub_in_process(self.vault_dirs)

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CliPath:
    """The real CLI: one ``python -m repro ...`` process per op.  A traced
    run calls ``repro.cli.main(argv)`` in-process instead, so that the
    wrappers see the work."""

    daemons: List[Daemon] = []
    registry = None

    def __init__(self, work: Path, in_process: bool) -> None:
        self.work = work
        self.vault_dirs = [work / "vault"]
        self.in_process = in_process

    def start(self) -> None:
        pass

    def client(self, index: int) -> "CliPath":
        return self

    def _cli(self, command: str, *rest: str) -> str:
        argv = [command, "--vault", "vault", *rest]
        if self.in_process:
            from repro.cli import main

            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            text = out.getvalue()
        else:
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv], cwd=self.work, env=child_env(),
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            code, text = done.returncode, done.stdout
        if code != 0:
            raise OpFailed(f"repro {' '.join(argv)} exited {code}: {text.strip()}")
        return text

    def backup(self, job: str, path: str, timestamp: float) -> int:
        match = re.match(r"run (\d+):", self._cli("backup", "--job", job, path))
        if not match:
            raise OpFailed("backup printed no run id")
        return int(match.group(1))

    def restore(self, job: str, run_id: int, dest: str) -> None:
        self._cli("restore", "--run", str(run_id), "--job", job, "--dest", dest)

    def runs(self, job: str) -> int:
        return len(json.loads(self._cli("runs", "--job", job, "--json")))

    def verify(self) -> int:
        match = re.search(r"across (\d+) runs", self._cli("verify", "--deep"))
        return int(match.group(1)) if match else -1

    def stop(self) -> None:
        pass

    def scrub(self) -> int:
        self._cli("scrub", "--report-json", "scrub.json")
        report = json.loads((self.work / "scrub.json").read_text())
        if report["corrupt_found"] or report["partial"]:
            raise OpFailed(f"scrub: {report}")
        return report["bytes_read"]

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class RemoteClient:
    """One connection to a daemon (a node, or the router in proxy mode)."""

    def __init__(self, port: int, name: str, registry) -> None:
        from repro.net.client import RemoteBackupClient

        self.api = RemoteBackupClient("127.0.0.1", port, client_name=name, registry=registry)

    def backup(self, job: str, path: str, timestamp: float) -> int:
        return self.api.backup(job, [path], timestamp=timestamp).run_id

    def restore(self, job: str, run_id: int, dest: str) -> None:
        self.api.restore(run_id, dest, job=job)

    def runs(self, job: str) -> int:
        return len(self.api.runs(job))


class DaemonPath:
    """``serve`` nodes, optionally behind ``route`` in proxy mode (clients
    connect to the router; RF=1, so each job lives on exactly one node)."""

    def __init__(self, work: Path, telemetry: bool, nodes: int, routed: bool) -> None:
        self.work = work
        self.telemetry = telemetry
        self.routed = routed
        self.vault_dirs = [work / f"node{i}" for i in range(nodes)]
        self.daemons: List[Daemon] = []
        self.clients: List[RemoteClient] = []
        self.registry = None

    def start(self) -> None:
        if self.telemetry:
            from repro.telemetry.registry import MetricsRegistry

            self.registry = MetricsRegistry()
        for i in range(len(self.vault_dirs)):
            self.daemons.append(Daemon(
                f"node{i}", ["serve", "--vault", f"node{i}", "--node-name", f"node{i}"],
                self.work, self.telemetry,
            ))
        if self.routed:
            # All three processes start at once; the nodes join over the wire
            # (what ``serve --advertise`` sends) once every port is known.
            self.daemons.append(Daemon(
                "router", ["route", "--state", "router", "--replication-factor", "1"],
                self.work, self.telemetry,
            ))
        for daemon in self.daemons:
            daemon.wait_ready()
        self.front = self.daemons[-1]
        if self.routed:
            from repro.net import messages
            from repro.net.client import NetClient

            with NetClient("127.0.0.1", self.front.port, client_name="harness") as net:
                for daemon in self.daemons[:-1]:
                    net.call_json(messages.NODE_JOIN, {
                        "name": daemon.name, "address": f"127.0.0.1:{daemon.port}"})

    def client(self, index: int) -> RemoteClient:
        client = RemoteClient(self.front.port, f"client{index}", self.registry)
        self.clients.append(client)
        return client

    def verify(self) -> int:
        """Deep verify of every node, node by node, over the wire."""
        from repro.net.client import RemoteBackupClient

        runs = 0
        for daemon in self.daemons[:len(self.vault_dirs)]:
            with RemoteBackupClient("127.0.0.1", daemon.port, registry=self.registry) as api:
                report = api.verify(deep=True)
            if not report.get("ok", True):
                raise OpFailed(f"verify on {daemon.name}: {report.get('finding')}")
            runs += report["runs"]
        return runs

    def stop(self) -> None:
        for client in self.clients:
            with contextlib.suppress(OSError):
                client.api.close()
        self.clients = []
        for daemon in reversed(self.daemons):
            daemon.stop()

    def scrub(self) -> int:
        """Scrub the node vaults once the daemons have shut down cleanly."""
        return _scrub_in_process(self.vault_dirs)

    def peak_rss_mib(self) -> float:
        return max(d.peak_rss_mib for d in self.daemons)


# -- one cycle ------------------------------------------------------------------------
@dataclass
class DataSet:
    job: str
    root: str                 # relative to the cycle's work dir (= cwd)
    rng: random.Random
    nbytes: int = 0
    digest: str = ""          # of the tree as it stands now
    runs: List[Tuple[int, str]] = field(default_factory=list)   # (run id, digest) of ``job``

    def measure(self, root: Optional[str] = None) -> Tuple[int, str]:
        tree = Path(root or self.root)
        return datagen.tree_bytes(tree), datagen.tree_digest(tree)


@dataclass
class CycleResult:
    metrics: Dict[str, float]
    samples: Dict[str, List[float]]
    attempted: int
    phase_walls: Dict[str, float]
    layers: Optional[Dict[str, Optional[float]]] = None
    spans: Optional[List[dict]] = None
    wall_tree: Optional[Dict[str, float]] = None


def _percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


Op = Tuple[str, Callable[[], object], Optional[Callable[[object], None]]]


class Cycle:
    """One pass over every phase, on a fresh work dir and deployment.

    ``trace`` set: wrappers are installed and spans recorded (per-layer
    run).  ``in_process``: the CLI path runs ``repro.cli.main`` in this
    process, which is how both halves of a per-layer run (traced cycles and
    their untraced reference cycles) execute it.
    """

    def __init__(self, name: str, seed: int, index: int,
                 trace: Optional[tracing.Tracing] = None, in_process: bool = False,
                 inject_failure: bool = False) -> None:
        self.spec = WORKLOADS[name]
        self.name, self.seed = name, seed
        self.trace = trace
        self.in_process = in_process
        self.inject_failure = inject_failure
        self.work = WORK_ROOT / f"{name}-s{seed}-p{os.getpid()}-c{index}"
        self.path = None
        self.samples: Dict[str, List[float]] = {}
        self.phase_walls: Dict[str, float] = {}
        self.attempted = 0
        self.catalog_bytes = 0
        self._catalog_sizes: Dict[Path, int] = {}
        self._lock = threading.Lock()

    # -- timing -----------------------------------------------------------------------
    def _phase(self, phase: str, work: List[List[Op]]) -> float:
        """Run each client's op list (clients in parallel, each a closed
        loop); returns the wall time from the common start to the last
        completion.  Each op is also timed on its own."""
        recorder = self.trace.recorder if self.trace else None
        errors: List[BaseException] = []

        def client_loop(ops: List[Op]) -> None:
            for label, fn, after in ops:
                if recorder:
                    recorder.set_op(f"{phase}/{label}")
                t0 = time.perf_counter()
                try:
                    result = fn()
                    elapsed = time.perf_counter() - t0
                    if after is not None:
                        after(result)
                except Exception as exc:
                    errors.append(OpFailed(
                        f"{self.name} {phase}/{label}: {type(exc).__name__}: {exc}"))
                    return
                with self._lock:
                    self.attempted += 1
                    self.samples.setdefault(phase, []).append(elapsed)

        if recorder:
            recorder.active = True
        t0 = time.perf_counter()
        try:
            if len(work) == 1:
                # Not in a thread: glibc gives each new thread its own malloc
                # arena, which raised peak RSS by 20% and made it jump.
                client_loop(work[0])
            else:
                threads = [threading.Thread(target=client_loop, args=(ops,)) for ops in work]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        finally:
            wall = time.perf_counter() - t0
            if recorder:
                recorder.active = False
        if errors:
            raise errors[0]
        self.phase_walls[phase] = self.phase_walls.get(phase, 0.0) + wall
        return wall

    def _note_catalog(self) -> None:
        """Bytes of ``catalog.json`` as rewritten by the commit just made."""
        with self._lock:
            for root in self.path.vault_dirs:
                catalog = root / "catalog.json"
                size = catalog.stat().st_size if catalog.exists() else 0
                if size != self._catalog_sizes.get(root):
                    self._catalog_sizes[root] = size
                    self.catalog_bytes += size

    # -- the script ---------------------------------------------------------------------
    def run(self) -> CycleResult:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        previous_cwd = os.getcwd()
        # Every path the program sees is relative to the work dir, so that the
        # catalog (and with it the stored bytes) repeats for a seed wherever
        # the checkout lives.
        os.chdir(self.work)
        try:
            return self._run()
        finally:
            os.chdir(previous_cwd)
            if self.path is not None:
                self.path.stop()
            shutil.rmtree(self.work, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK_ROOT.rmdir()   # unless another run is using it

    def _run(self) -> CycleResult:
        spec, scale = self.spec, SCALE
        cpu0 = os.times()

        # ---- set-up: data generation + daemon start --------------------------------
        t0 = time.perf_counter()
        sets: List[List[DataSet]] = []
        grow = {"bulk": datagen.bulk_tree, "small": datagen.small_tree,
                "tenant": datagen.tenant_tree}[spec.data]
        for c in range(spec.clients):
            sets.append([])
            for j in range(spec.jobs):
                job = f"c{c}j{j}"
                ds = DataSet(job, f"data/{job}", datagen.stream(self.seed, self.name, job))
                grow(Path(ds.root), ds.rng, scale)
                sets[c].append(ds)
        if spec.path == "local":
            self.path = LocalPath(self.work)
        elif spec.path == "cli":
            self.path = CliPath(self.work, self.in_process)
        else:
            self.path = DaemonPath(self.work, self.trace is not None,
                                   nodes=2 if spec.path == "routed" else 1,
                                   routed=spec.path == "routed")
        self.path.start()
        clients = [self.path.client(c) for c in range(spec.clients)]
        m: Dict[str, float] = {"setup_s": time.perf_counter() - t0}

        every = [ds for per_client in sets for ds in per_client]
        for ds in every:
            ds.nbytes, ds.digest = ds.measure()
        logical = 0   # cumulative logical bytes backed up

        def backup_phase(phase: str, stamp: int, suffix: str = "") -> float:
            """Back every data set up once (``suffix`` selects the cross-job
            copy and its job name); returns logical MiB/s."""
            nonlocal logical
            moved = 0
            work: List[List[Op]] = []
            for c in range(spec.clients):
                work.append([])
                for ds in sets[c]:
                    nbytes, digest = ds.measure(ds.root + suffix) if suffix else (ds.nbytes, ds.digest)
                    moved += nbytes

                    def op(client=clients[c], ds=ds):
                        return client.backup(ds.job + suffix, ds.root + suffix,
                                             float(datagen.MTIME0 + stamp))

                    def after(run_id, ds=ds, digest=digest):
                        if not suffix:
                            ds.runs.append((run_id, digest))
                        self._note_catalog()

                    work[c].append((ds.job + suffix, op, after))
            wall = self._phase(phase, work)
            logical += moved
            return moved / MIB / wall

        m["backup_fresh_mibps"] = backup_phase("fresh", 0)
        if self.inject_failure:
            raise InjectedFailure("injected after the fresh phase")
        m["backup_dup_mibps"] = backup_phase("dup", 0)

        rates = []
        for gen in range(1, spec.gens + 1):
            for ds in every:
                if spec.data == "bulk":
                    datagen.edit_bytes(Path(ds.root), ds.rng, gen, scale)
                elif spec.data == "small":
                    datagen.edit_files(Path(ds.root), ds.rng, gen)
                else:
                    datagen.edit_block(Path(ds.root), ds.rng, gen, scale)
                ds.nbytes, ds.digest = ds.measure()
            rates.append(backup_phase("incr", gen))
        m["backup_incr_mibps"] = statistics.median(rates)

        for ds in every:
            datagen.near_copy(Path(ds.root), Path(ds.root + "-b"), ds.rng,
                              whole_files=spec.data != "bulk")
        m["backup_crossjob_mibps"] = backup_phase("crossjob", 0, "-b")
        stored = sum(datagen.tree_bytes(root) for root in self.path.vault_dirs)
        m["stored_bytes_per_logical_byte"] = stored / logical

        # ---- run listings ------------------------------------------------------------
        # The read-side phases are short, so the kernel writing back what the
        # backups dirtied would dominate their spread: settle it, untimed.
        os.sync()
        def listing(client, ds: DataSet) -> Op:
            def check(count) -> None:
                if count != 2 + spec.gens:
                    raise OpFailed(f"{count} runs listed, expected {2 + spec.gens}")
            return (ds.job, lambda: client.runs(ds.job), check)

        self._phase("meta", [
            [listing(clients[c], ds) for _ in range(spec.metas) for ds in sets[c]]
            for c in range(spec.clients)
        ])
        m["cli_meta_p50_ms"] = statistics.median(self.samples["meta"]) * 1e3

        # ---- restores (alternating latest / first run) --------------------------------
        # Each restored tree is checked and removed as soon as its op completes,
        # outside the op's timer: a phase that let its trees pile up was timing
        # the kernel writing them back and allocating their blocks (restore op
        # 5-13 ms with the trees kept, 3-5 ms removed as it goes, same program).
        restored: List[int] = []

        def restoring(client, ds: DataSet, k: int) -> Op:
            run_id, digest = ds.runs[-1] if k % 2 == 0 else ds.runs[0]
            dest = f"out/{ds.job}-{k}"

            def check(_) -> None:
                nbytes, found = ds.measure(f"{dest}/{ds.root}")
                if found != digest:
                    raise OpFailed(f"restore into {dest} differs from its source")
                restored.append(nbytes)
                shutil.rmtree(dest)

            return (f"{ds.job}#{run_id}", lambda: client.restore(ds.job, run_id, dest), check)

        self._phase("restore", [
            [restoring(clients[c], ds, k) for k in range(spec.restores) for ds in sets[c]]
            for c in range(spec.clients)
        ])
        # The phase's wall holds the checks too: count the time the clients
        # spent inside restores, side by side.
        wall = self.phase_walls["restore"] = sum(self.samples["restore"]) / spec.clients
        m["restore_mibps"] = sum(restored) / MIB / wall

        # ---- deep verify, shutdown, scrub ---------------------------------------------
        def verified(runs) -> None:
            if runs != len(every) * (3 + spec.gens):
                raise OpFailed(f"verify covered {runs} runs, expected {len(every) * (3 + spec.gens)}")

        wall = self._phase("verify", [[("verify", self.path.verify, verified)] * spec.verifies])
        m["verify_deep_mibps"] = logical * spec.verifies / MIB / wall
        self.path.stop()
        read: List[int] = []
        wall = self._phase("scrub", [[("scrub", self.path.scrub, read.append)] * spec.scrubs])
        m["scrub_mibps"] = sum(read) / MIB / wall

        # ---- per-op view ---------------------------------------------------------------
        # Backup latencies are those of the steady-state ops (an edited
        # generation): a first or cross-job backup costs several times more and
        # would be all of the tail.
        ops = sum(len(self.samples[p]) for p in (*BACKUP_PHASES, "restore"))
        m["ops_per_s"] = ops / sum(self.phase_walls[p] for p in (*BACKUP_PHASES, "restore"))
        m["backup_op_p50_ms"] = statistics.median(self.samples["incr"]) * 1e3
        m["backup_op_p95_ms"] = _percentile(self.samples["incr"], 0.95) * 1e3
        m["restore_op_p50_ms"] = statistics.median(self.samples["restore"]) * 1e3
        m["peak_rss_mib"] = self.path.peak_rss_mib()

        result = CycleResult(m, self.samples, self.attempted, self.phase_walls)
        if self.trace:
            self._layers(result, cpu0)
        return result

    # -- per-layer readout (traced cycles only) -------------------------------------------
    def _layers(self, result: CycleResult, cpu0) -> None:
        spans, counters = self.trace.recorder.take()
        agg = tracing.aggregate(spans)
        cpu1 = os.times()
        extra: Dict[str, Optional[float]] = {
            "system.vault.catalog.bytes": float(self.catalog_bytes),
            "process.client.utime_s": cpu1.user - cpu0.user,
            "process.client.stime_s": cpu1.system - cpu0.system,
        }

        def load(daemon: Daemon) -> List[dict]:
            return json.loads(daemon.telemetry_json.read_text())["metrics"]

        registry = self.path.registry
        client_side = registry.snapshot_metrics() if registry is not None else []
        for key in ("bytes_sent", "bytes_received", "retries"):
            extra[f"net.client.{key}"] = tracing.metrics_sum(client_side, f"net.{key}")

        daemons = {d.name: d for d in self.path.daemons}
        node_side = [load(d) for d in self.path.daemons if d.name.startswith("node")]

        def nodes(family: str, field: str = "value", **labels: str) -> float:
            return sum(tracing.metrics_sum(m, family, field, **labels) for m in node_side)

        extra["net.server.requests"] = nodes("net.requests")
        extra["net.server.busy_rejections"] = nodes("net.busy_rejections")
        for kind in tracing.SERVER_TYPES:
            extra[f"net.server.handle_s.{kind}"] = nodes("net.rpc_latency", "sum", type=kind)
        router_side = load(daemons["router"]) if "router" in daemons else []
        for key, family, fld in (("proxied_frames", "router.proxied_frames", "value"),
                                 ("proxy_s", "router.proxy_latency", "sum"),
                                 ("failovers", "router.failovers", "value")):
            extra[f"frontdoor.router.{key}"] = tracing.metrics_sum(router_side, family, fld)
        for name in ("node0", "node1", "router"):
            utime, stime = daemons[name].cpu if name in daemons else (0.0, 0.0)
            extra[f"process.{name}.utime_s"] = utime
            extra[f"process.{name}.stime_s"] = stime

        fresh = [s for s in spans if s.op and s.op.startswith("fresh/")]
        glue = sum(s.dur - s.child for s in fresh if s.name == "system.vault.backup")
        extra["trace.coverage_share"] = (
            (sum(s.dur - s.child for s in fresh) - glue)
            / (self.phase_walls["fresh"] * self.spec.clients)
        )
        result.layers = tracing.layer_metrics(agg, counters, self.trace.unresolved, extra)
        result.spans = tracing.spans_to_json(spans)
        result.wall_tree = self.trace.wall_tree_sums()


# -- one run ----------------------------------------------------------------------------
def _cli_startup_ms() -> Dict[str, float]:
    """What every CLI invocation pays before doing any work."""
    def median_ms(argv: List[str]) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, *argv], env=child_env(), check=True,
                           stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    return {"cli.import_ms": median_ms(["-c", "import repro.cli"]),
            "cli.help_ms": median_ms(["-m", "repro", "--help"])}


def _median(values: List[Optional[float]]) -> Optional[float]:
    return None if any(v is None for v in values) else statistics.median(values)


def end_to_end(cycles: List[CycleResult]) -> Dict[str, float]:
    return {
        key: (max if key == "peak_rss_mib" else statistics.median)(
            [c.metrics[key] for c in cycles])
        for key in cycles[0].metrics
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool = False,
                 inject_failure: bool = False) -> dict:
    """Repeat whole cycles until ``seconds`` have passed; report medians.

    An end-to-end run (``traced=False``) never has a wrapper installed.  A
    per-layer run alternates untraced reference cycles with traced ones, both
    in the same execution mode, so that the tracing overhead is measured on
    the spot.
    """
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (every access path uses part of it; paid once per process)
    import_s = time.perf_counter() - start
    trace = tracing.Tracing() if traced else None
    cycles: List[CycleResult] = []
    references: List[CycleResult] = []
    # The end-to-end metrics that BENCHMARK.json lists as informational
    # per-layer entries come from untraced cycles in the real execution mode:
    # the reference cycles, except that those run the CLI in-process (as the
    # traced ones must), without the interpreter start that access path exists
    # to measure - so the CLI path pays one cycle of real processes for them.
    numbers = itertools.count()   # work dirs
    real = references
    if traced and WORKLOADS[name].path == "cli":
        real = [Cycle(name, seed, next(numbers)).run()]
    while True:
        if traced and len(references) == len(cycles):
            references.append(Cycle(name, seed, next(numbers), in_process=True).run())
        else:
            if trace:
                trace.install()
            try:
                cycles.append(Cycle(name, seed, next(numbers), trace=trace, in_process=traced,
                                    inject_failure=inject_failure).run())
            finally:
                if trace:
                    trace.uninstall()
        enough = len(cycles) >= (MIN_TRACED_CYCLES if traced else MIN_CYCLES)
        paired = not traced or len(references) == len(cycles)
        if time.perf_counter() - start >= seconds and enough and paired:
            break

    doc = {
        "workload": name, "seed": seed, "scale": SCALE, "seconds": seconds,
        "cycles": len(cycles), "attempted": sum(c.attempted for c in cycles), "failed": 0,
        "samples": {p: [c.samples[p] for c in cycles] for p in cycles[0].samples},
    }
    if not traced:
        doc["metrics"] = end_to_end(cycles)
        doc["metrics"]["setup_s"] += import_s
        return doc

    def wall(c: CycleResult) -> float:
        return sum(c.phase_walls.values())

    layers = end_to_end(real)
    layers.update({key: _median([c.layers[key] for c in cycles]) for key in cycles[0].layers})
    layers.update(_cli_startup_ms())
    layers["trace.overhead_share"] = (
        statistics.median(map(wall, cycles)) / statistics.median(map(wall, references)) - 1
    )
    doc["metrics"] = layers
    doc["phase_wall_s"] = {p: statistics.median(c.phase_walls[p] for c in cycles)
                           for p in cycles[0].phase_walls}
    doc["spans"] = cycles[-1].spans
    doc["wall_tree"] = cycles[-1].wall_tree
    return doc
