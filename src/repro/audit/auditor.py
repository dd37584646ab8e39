"""The consistency auditor: proves the invariants the paper relies on.

DEBAR's correctness rests on a handful of structural invariants that
nothing in the write path re-checks once they are established:

* **overflow placement** (Section 4.1) — an entry lives in its home bucket
  or, only while the home bucket is full, in an adjacent bucket.  ``lookup``
  probes neighbours *only* when the home bucket is full, so a stranded
  overflow entry is a silent false negative — and a false negative means a
  duplicate store on the next backup;
* **count caches** — the in-memory per-bucket entry counts that gate
  fullness checks must match the on-disk bucket headers;
* **index <-> repository cross-references** — every index entry points at a
  stored container that really holds its chunk, every stored chunk is
  registered in the index (or pending in the checking file inside the
  SIL -> SIU window, Section 5.4), and no fingerprint is stored twice;
* **restorability** — every fingerprint any recorded backup references
  still resolves to a stored chunk.

The auditor sweeps a :class:`~repro.core.disk_index.DiskIndex`, a chunk
repository, a checking file and the recorded file indexes and reports every
violation as a :class:`Finding`, so damage (a crash inside the SIL -> SIU
window, an interrupted capacity scaling, a buggy delete) is *pinpointed*
rather than discovered as corruption at restore time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.checking import CheckingFile
from repro.core.disk_index import DiskIndex
from repro.core.fingerprint import Fingerprint, fp_hex
from repro.durability.errors import CorruptionError

#: Finding severities.
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One invariant violation (or observation) from an audit sweep."""

    code: str
    severity: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.severity}] {self.code}: {self.detail}"


@dataclass
class AuditReport:
    """Everything one audit sweep found, plus coverage counters."""

    findings: List[Finding] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True iff no error-severity finding was recorded."""
        return not self.errors

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    def codes(self) -> List[str]:
        """Distinct finding codes, in first-seen order."""
        seen: List[str] = []
        for finding in self.findings:
            if finding.code not in seen:
                seen.append(finding.code)
        return seen

    def has(self, code: str) -> bool:
        """True iff some finding carries the given code."""
        return any(f.code == code for f in self.findings)

    def add(self, code: str, detail: str, severity: str = ERROR) -> None:
        self.findings.append(Finding(code, severity, detail))

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def merge(self, other: "AuditReport") -> "AuditReport":
        """Fold another report's findings and counters into this one."""
        self.findings.extend(other.findings)
        for key, value in other.counters.items():
            self.count(key, value)
        return self

    def summary(self) -> str:
        """Human-readable one-screen account of the sweep."""
        lines = []
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"audit {verdict}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )
        for key in sorted(self.counters):
            lines.append(f"  {key:<28} {self.counters[key]}")
        for finding in self.findings:
            lines.append(f"  {finding}")
        return "\n".join(lines)


# ---------------------------------------------------------------- index sweep
def audit_index(index: DiskIndex, report: Optional[AuditReport] = None) -> AuditReport:
    """Verify one disk index (or index part) against its own invariants.

    Checks, per Section 4.1: every entry is in its home bucket or — only
    while the home bucket is full — in an adjacent bucket; no fingerprint
    appears twice; every entry belongs to this index part; and the
    in-memory entry-count caches match the on-disk bucket headers.
    """
    report = report if report is not None else AuditReport()
    seen: Dict[Fingerprint, int] = {}
    label = _part_label(index)
    for k in range(index.n_buckets):
        on_disk = index.on_disk_count(k)
        cached = index._counts[k]
        if on_disk != cached:
            report.add(
                "count-cache",
                f"{label}bucket {k}: cached count {cached} != on-disk header {on_disk}",
            )
        if on_disk > index.bucket_capacity:
            report.add(
                "header-overflow",
                f"{label}bucket {k}: header count {on_disk} exceeds capacity "
                f"{index.bucket_capacity}",
            )
        bucket = index.read_bucket(k)
        report.count("buckets", 1)
        for fp, cid in bucket.entries:
            report.count("entries", 1)
            if fp in seen:
                report.add(
                    "entry-duplicate",
                    f"{label}fingerprint {fp_hex(fp)} in buckets {seen[fp]} and {k}",
                )
                continue
            seen[fp] = k
            if not index.owns(fp):
                report.add(
                    "entry-foreign",
                    f"{label}bucket {k}: fingerprint {fp_hex(fp)} belongs to "
                    "another index part",
                )
                continue
            home = index.bucket_number(fp)
            if home == k:
                continue
            if k not in index.neighbours(home):
                report.add(
                    "entry-misplaced",
                    f"{label}fingerprint {fp_hex(fp)} homed at bucket {home} "
                    f"found in non-adjacent bucket {k}",
                )
            elif index._counts[home] < index.bucket_capacity:
                report.add(
                    "entry-stranded",
                    f"{label}fingerprint {fp_hex(fp)} overflowed to bucket {k} "
                    f"but home bucket {home} is not full — lookup misses it",
                )
    total = sum(index._counts)
    if total != index.entry_count:
        report.add(
            "count-cache",
            f"{label}entry_count {index.entry_count} != bucket count sum {total}",
        )
    return report


# ------------------------------------------------------- index <-> repository
def audit_store(
    index: DiskIndex,
    repository,
    checking: Optional[CheckingFile] = None,
    report: Optional[AuditReport] = None,
) -> AuditReport:
    """Cross-reference one index (part) against the chunk repository.

    ``repository`` is anything with ``iter_index_entries()`` (both the
    in-memory :class:`~repro.storage.repository.ChunkRepository` and the
    on-disk :class:`~repro.storage.file_repository.FileChunkRepository`,
    which reads the metadata sections alone).  Fingerprints the index part
    does not own are skipped — in a cluster the repository is shared and
    each part covers its own prefix.
    """
    report = report if report is not None else AuditReport()
    label = _part_label(index)
    stored: Dict[Fingerprint, int] = {}
    containers: Set[int] = set()
    for fp, cid in repository.iter_index_entries():
        containers.add(cid)
        if not index.owns(fp):
            continue
        report.count("chunks", 1)
        if fp in stored:
            report.add(
                "duplicate-store",
                f"{label}fingerprint {fp_hex(fp)} stored in containers "
                f"{stored[fp]} and {cid}",
            )
            continue
        stored[fp] = cid
    report.count("containers", len(containers))
    indexed = dict(index.iter_entries())
    for fp, cid in indexed.items():
        if fp not in stored:
            report.add(
                "index-dangling",
                f"{label}index maps {fp_hex(fp)} to container {cid}, but no "
                "stored container holds that chunk",
            )
        elif stored[fp] != cid:
            report.add(
                "index-mismatch",
                f"{label}index maps {fp_hex(fp)} to container {cid}, but the "
                f"chunk is stored in container {stored[fp]}",
            )
    if checking is not None:
        for fp, cid in checking.pending().items():
            if not index.owns(fp):
                continue
            report.count("checking_pending", 1)
            if stored.get(fp) != cid:
                report.add(
                    "checking-dangling",
                    f"{label}checking file maps {fp_hex(fp)} to container "
                    f"{cid}, but the repository disagrees "
                    f"(holds {stored.get(fp)})",
                )
            elif fp in indexed:
                report.add(
                    "checking-stale",
                    f"{label}fingerprint {fp_hex(fp)} is both registered and "
                    "still pending in the checking file",
                    severity=WARNING,
                )
    for fp, cid in stored.items():
        if fp in indexed:
            continue
        if checking is not None and fp in checking:
            continue
        report.add(
            "chunk-orphaned",
            f"{label}container {cid} holds {fp_hex(fp)}, which neither the "
            "index nor the checking file knows — rebuild the index from "
            "container metadata to recover",
        )
    return report


# ------------------------------------------------------------- restorability
def _repair_hint(fp: Fingerprint, chunk_log) -> str:
    """Whether the scrubber could heal a corrupt payload, and how."""
    from repro.core.fingerprint import fingerprint as sha1

    if chunk_log is not None:
        for record in getattr(chunk_log, "_records", ()):
            if (
                record.fingerprint == fp
                and record.data is not None
                and sha1(record.data) == fp
            ):
                return (
                    "the chunk log holds an intact copy — "
                    "`repro scrub --repair` can heal it"
                )
    return (
        "no local intact copy — `repro scrub --repair --peer <replica>` "
        "may heal it from a peer"
    )


def audit_restorability(
    run_fingerprints: Iterable[Tuple[object, Iterable[Fingerprint]]],
    resolve,
    repository,
    deep: bool = False,
    report: Optional[AuditReport] = None,
    chunk_log=None,
) -> AuditReport:
    """Verify every recorded backup still restores.

    ``run_fingerprints`` yields (run label, fingerprint sequence) pairs;
    ``resolve(fp)`` maps a fingerprint to its container ID (or ``None``) —
    index plus checking file, or the cluster's owner routing.  With
    ``deep`` every referenced chunk's payload is verified (materialized
    repositories only): records carrying a CRC32C (everything that came
    through the persistent chunk log or off disk) against it, records
    built without one (simulated systems) by re-hashing against the
    fingerprint.  Fingerprints are resolved first; then each referenced
    container is fetched once, in container order, and checked whole in
    one :meth:`~repro.storage.container.Container.verify_payloads` batch.
    A damaged chunk is reported once per reference, naming the run.
    ``chunk_log`` (when given) lets a corrupt-payload finding say whether
    the scrubber could repair it locally.
    """
    report = report if report is not None else AuditReport()
    where: Dict[Fingerprint, Optional[int]] = {}
    #: Per referenced container: each fingerprint it must hold, with the
    #: label of every run reference to it.
    wanted: Dict[int, Dict[Fingerprint, List[object]]] = {}
    for run_label, fps in run_fingerprints:
        report.count("runs", 1)
        for fp in fps:
            report.count("run_fingerprints", 1)
            if fp not in where:
                where[fp] = resolve(fp)
            cid = where[fp]
            if cid is None:
                report.add(
                    "chunk-unrestorable",
                    f"run {run_label}: fingerprint {fp_hex(fp)} resolves to "
                    "no container — the backup cannot be restored",
                )
                continue
            wanted.setdefault(cid, {}).setdefault(fp, []).append(run_label)

    def flag(code: str, runs: List[object], detail: str) -> None:
        for run_label in runs:
            report.add(code, f"run {run_label}: {detail}")

    for cid in sorted(wanted):
        refs = wanted.pop(cid)
        try:
            container = repository.fetch(cid)
        except KeyError:
            for fp, runs in refs.items():
                flag("chunk-unrestorable", runs,
                     f"fingerprint {fp_hex(fp)} points at missing container {cid}")
            continue
        except CorruptionError as exc:
            for runs in refs.values():
                flag("chunk-unrestorable", runs,
                     f"container {cid} is unreadable ({exc}) — "
                     "`repro scrub --repair` can attempt a rebuild")
            continue
        # Only materialized payloads can be checked; virtual containers
        # regenerate synthetic payloads on read.
        deep_here = deep and container.data is not None
        damaged = (
            {fault.fingerprint for fault in container.verify_payloads()}
            if deep_here else set()
        )
        for fp, runs in refs.items():
            if fp not in container:
                flag("index-mismatch", runs,
                     f"container {cid} does not hold {fp_hex(fp)}")
            elif fp in damaged:
                rec = container.record_for(fp)
                flag("payload-corrupt", runs,
                     f"payload of {fp_hex(fp)} in container {cid} fails its "
                     f"checksum at byte {container.data_start + rec.offset} "
                     "of the image; " + _repair_hint(fp, chunk_log))
            elif deep_here:
                report.count("payloads_verified", 1)
    return report


# ------------------------------------------------------------- whole systems
def audit_tpds(tpds, deep: bool = False) -> AuditReport:
    """Full sweep of one TPDS engine: index, repository and checking file."""
    report = AuditReport()
    audit_index(tpds.index, report)
    audit_store(tpds.index, tpds.repository, tpds.checking, report)
    return report


def _resolver(index: DiskIndex, checking: Optional[CheckingFile]):
    def resolve(fp: Fingerprint):
        cid = index.lookup(fp)
        if cid is None and checking is not None:
            cid = checking.get(fp)
        return cid

    return resolve


def audit_vault(vault, deep: bool = False) -> AuditReport:
    """Audit a :class:`~repro.system.vault.DebarVault` end to end.

    Index invariants, index <-> container cross-references, restorability
    of every catalogued run, and durability: the live index must still be
    backed by the vault's on-disk index file with the geometry the catalog
    records (capacity scaling that silently migrated the index to memory
    is exactly the damage this check exists to catch).
    """
    from repro.storage.blockstore import FileBlockStore

    report = AuditReport()
    index = vault.tpds.index
    audit_index(index, report)
    audit_store(index, vault.repository, vault.tpds.checking, report)

    store = index.store
    if not isinstance(store, FileBlockStore):
        report.add(
            "durability",
            f"vault index is backed by {type(store).__name__}, not the "
            "on-disk index file — a restart loses every entry",
        )
    elif store.path != vault.root / "index.bin":
        report.add(
            "durability",
            f"vault index file is {store.path}, expected "
            f"{vault.root / 'index.bin'}",
        )
    if index.n_bits != vault.catalog.index_n_bits:
        report.add(
            "durability",
            f"catalog records index_n_bits={vault.catalog.index_n_bits} "
            f"but the live index has n_bits={index.n_bits} — reopening the "
            "vault would attach the wrong geometry",
        )

    audit_restorability(
        vault.catalog.iter_run_fingerprints(),
        _resolver(index, vault.tpds.checking), vault.repository, deep,
        report, chunk_log=vault.tpds.chunk_log,
    )
    return report


def audit_system(system, deep: bool = False) -> AuditReport:
    """Audit a single-server :class:`~repro.system.debar.DebarSystem`."""
    tpds = system.server.tpds
    report = audit_tpds(tpds, deep=deep)
    audit_restorability(
        system.director.metadata.iter_run_fingerprints(),
        _resolver(tpds.index, tpds.checking),
        system.repository,
        deep,
        report,
        chunk_log=tpds.chunk_log,
    )
    return report


def audit_cluster(cluster, deep: bool = False) -> AuditReport:
    """Audit every index part of a cluster plus the shared repository.

    Each server's part is swept individually (ownership violations show up
    as ``entry-foreign``); cross-references run against the shared
    repository per part; restorability resolves each fingerprint through
    its *owning* server, exactly as a restore would (Section 5.2 routing).
    """
    report = AuditReport()
    for server in cluster.servers:
        audit_index(server.index, report)
        audit_store(server.index, cluster.repository, server.tpds.checking, report)

    def resolve(fp: Fingerprint):
        owner = cluster.servers[cluster.owner_of(fp)]
        cid = owner.index.lookup(fp)
        if cid is None:
            cid = owner.tpds.checking.get(fp)
        return cid

    audit_restorability(
        cluster.director.metadata.iter_run_fingerprints(),
        resolve,
        cluster.repository,
        deep,
        report,
    )
    return report


def _part_label(index: DiskIndex) -> str:
    if index.prefix_bits:
        return f"part {index.prefix_value:#x}/{index.prefix_bits}b: "
    return ""
