"""Background media scrub: sweep, quarantine and repair bit rot.

The scrubber walks every persistent artifact of a vault — container files,
the chunk log, the disk-index buckets — verifying checksums the write path
stamped (see :mod:`repro.durability.framing`), and classifies damage:

* **repairable** — a replacement payload exists: the chunk log still holds
  the ``<F, D(F)>`` group, or a cluster peer (any named source of a
  :class:`~repro.storage.reader.ChunkReader`) serves the chunk.
  Replacements are SHA-1-verified against the fingerprint before they
  touch disk, so a scrub can never launder corruption;
* **unrepairable** — no source has intact bytes.  The damage is reported,
  quarantined where that preserves forensics, and every catalogued file
  referencing the lost chunk is marked *degraded* in the vault catalog so
  restores and operators know exactly what was hurt.

The sweep is **incremental**: a JSON cursor in the vault root records how
far the last pass got, so a ``max_records`` budget (or a crash) resumes
where it stopped instead of re-reading the whole repository; and **rate
limited**: an optional bytes-per-second cap sleeps between reads so a
scrub can run beside production backups without starving them.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.disk_index import Bucket, IndexFullError, unpack_bucket
from repro.core.fingerprint import Fingerprint
from repro.durability.errors import CorruptionError
from repro.storage.container import ChunkRecord, Container
from repro.storage.reader import ChunkReader

#: Cursor file name inside the vault root.
CURSOR_FILE = "scrub.cursor"

#: Sweep phases, in order.
PHASE_CONTAINERS = "containers"
PHASE_CHUNK_LOG = "chunk-log"
PHASE_INDEX = "index"
_PHASES = (PHASE_CONTAINERS, PHASE_CHUNK_LOG, PHASE_INDEX)


def _sha1(data: bytes) -> bytes:
    return hashlib.sha1(data).digest()


@dataclass(frozen=True)
class ScrubFinding:
    """One piece of damage the sweep met."""

    artifact: str               #: "container" | "chunk log" | "index"
    detail: str
    container_id: Optional[int] = None
    fingerprint: Optional[Fingerprint] = None
    offset: Optional[int] = None    #: byte offset inside the artifact
    repaired: bool = False
    action: str = "reported"        #: what the scrubber did about it

    def to_json(self) -> dict:
        return {
            "artifact": self.artifact,
            "detail": self.detail,
            "container_id": self.container_id,
            "fingerprint": self.fingerprint.hex() if self.fingerprint else None,
            "offset": self.offset,
            "repaired": self.repaired,
            "action": self.action,
        }


@dataclass
class ScrubReport:
    """Outcome of one scrub pass (possibly partial, under a budget)."""

    records_checked: int = 0
    corrupt_found: int = 0
    repaired: int = 0
    containers_scanned: int = 0
    log_records_scanned: int = 0
    buckets_scanned: int = 0
    entries_reinserted: int = 0
    bytes_read: int = 0
    degraded_files: List[str] = field(default_factory=list)
    findings: List[ScrubFinding] = field(default_factory=list)
    partial: bool = False       #: budget ran out; the cursor marks the spot
    resumed: bool = False       #: pass started from a saved cursor
    notes: List[str] = field(default_factory=list)

    @property
    def unrepaired(self) -> int:
        """Damage found that is still on disk after this pass."""
        return self.corrupt_found - self.repaired

    @property
    def clean(self) -> bool:
        return self.corrupt_found == 0

    def add(self, finding: ScrubFinding) -> None:
        self.findings.append(finding)

    def summary(self) -> str:
        verdict = (
            "CLEAN" if self.clean
            else "REPAIRED" if self.unrepaired == 0
            else "DAMAGED"
        )
        # A resumed pass only covers the tail the cursor pointed at, so a
        # CLEAN verdict must not read as "the whole vault is clean".
        scope = (
            "partial pass" if self.partial
            else "resumed pass" if self.resumed
            else "full pass"
        )
        lines = [
            f"scrub {verdict} ({scope}): {self.records_checked} records checked, "
            f"{self.corrupt_found} corrupt, {self.repaired} repaired"
        ]
        lines.append(
            f"  containers {self.containers_scanned}, chunk-log records "
            f"{self.log_records_scanned}, index buckets {self.buckets_scanned}, "
            f"{self.bytes_read} bytes read"
        )
        if self.entries_reinserted:
            lines.append(f"  index entries re-inserted: {self.entries_reinserted}")
        for finding in self.findings:
            mark = "repaired" if finding.repaired else "UNREPAIRED"
            lines.append(f"  [{mark}] {finding.artifact}: {finding.detail} "
                         f"({finding.action})")
        for path in self.degraded_files:
            lines.append(f"  degraded: {path}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "records_checked": self.records_checked,
            "corrupt_found": self.corrupt_found,
            "repaired": self.repaired,
            "unrepaired": self.unrepaired,
            "containers_scanned": self.containers_scanned,
            "log_records_scanned": self.log_records_scanned,
            "buckets_scanned": self.buckets_scanned,
            "entries_reinserted": self.entries_reinserted,
            "bytes_read": self.bytes_read,
            "partial": self.partial,
            "resumed": self.resumed,
            "degraded_files": self.degraded_files,
            "findings": [f.to_json() for f in self.findings],
            "notes": self.notes,
        }


class _Budget:
    """Record budget + read-rate throttle shared across phases."""

    def __init__(
        self,
        max_records: Optional[int],
        rate_bps: Optional[float],
        sleep: Callable[[float], None],
    ) -> None:
        self.max_records = max_records
        self.rate_bps = rate_bps
        self.sleep = sleep
        self.records = 0
        self._debt = 0.0

    def exhausted(self) -> bool:
        return self.max_records is not None and self.records >= self.max_records

    def charge_records(self, n: int) -> None:
        self.records += n

    def charge_bytes(self, n: int) -> None:
        if not self.rate_bps:
            return
        self._debt += n
        # Sleep in ~100 ms slices so the cap holds without jittery micro-naps.
        if self._debt >= self.rate_bps * 0.1:
            self.sleep(self._debt / self.rate_bps)
            self._debt = 0.0


class Scrubber:
    """Sweeps one :class:`~repro.system.vault.DebarVault` for media faults.

    Parameters
    ----------
    vault:
        The open vault to scrub.
    peers:
        Repair sources beyond the local chunk log: ``(name, source)``
        pairs, each a :class:`~repro.storage.reader.ChunkReader` source
        (e.g. a :class:`repro.net.client.WireSource` dialled at a replica
        vault).  They are asked one by one, not as one fall-through
        reader, because every candidate payload is fingerprint-verified
        before use and a rotten answer must move on to the next peer.
    rate_bps:
        Optional read-rate cap in bytes per second.
    max_records:
        Optional per-pass record budget; an exhausted budget saves the
        cursor and returns a ``partial`` report that the next pass resumes.
    sleep:
        Injectable sleep for the rate limiter (tests pass a stub).
    reset_cursor:
        Drop any saved cursor and start the sweep from the beginning.
    """

    def __init__(
        self,
        vault,
        peers: Sequence[Tuple[str, object]] = (),
        rate_bps: Optional[float] = None,
        max_records: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
        reset_cursor: bool = False,
    ) -> None:
        self.vault = vault
        self.peers = [
            (name, ChunkReader([(name, source)], registry=vault.telemetry))
            for name, source in peers
        ]
        self.fs = vault.fs
        self._budget = _Budget(max_records, rate_bps, sleep)
        self._cursor_path = vault.root / CURSOR_FILE
        if reset_cursor and self.fs.exists(self._cursor_path):
            self.fs.unlink(self._cursor_path)
        registry = vault.telemetry
        self._t_checked = registry.counter(
            "scrub.records_checked", "records checked by the scrubber"
        ).labels()
        self._t_corrupt = registry.counter(
            "scrub.corrupt_found", "corrupt records the scrubber found"
        ).labels()
        self._t_repaired = registry.counter(
            "scrub.repaired", "corrupt records the scrubber repaired"
        ).labels()

    # -- cursor ---------------------------------------------------------------
    def _load_cursor(self) -> dict:
        if not self.fs.exists(self._cursor_path):
            return {"phase": PHASE_CONTAINERS, "position": 0}
        try:
            cursor = json.loads(self.fs.read_file(self._cursor_path))
            if cursor.get("phase") in _PHASES:
                return {"phase": cursor["phase"], "position": int(cursor.get("position", 0))}
        except (ValueError, OSError):
            pass
        return {"phase": PHASE_CONTAINERS, "position": 0}

    def _save_cursor(self, phase: str, position: int) -> None:
        self.fs.write_file(
            self._cursor_path,
            json.dumps({"phase": phase, "position": position}).encode(),
        )

    def _drop_cursor(self) -> None:
        if self.fs.exists(self._cursor_path):
            self.fs.unlink(self._cursor_path)

    # -- the sweep ------------------------------------------------------------
    def run(self, repair: bool = False) -> ScrubReport:
        """One scrub pass: containers, then the chunk log, then the index.

        With ``repair`` the scrubber rewrites what it can heal; without it
        the pass is strictly read-only (beyond cursor bookkeeping).
        """
        report = ScrubReport()
        cursor = self._load_cursor()
        report.resumed = (
            cursor["phase"] != PHASE_CONTAINERS or cursor["position"] > 0
        )
        start_phase = _PHASES.index(cursor["phase"])
        phases = (
            (PHASE_CONTAINERS, self._scrub_containers),
            (PHASE_CHUNK_LOG, self._scrub_chunk_log),
            (PHASE_INDEX, self._scrub_index),
        )
        for i, (name, fn) in enumerate(phases):
            if i < start_phase:
                continue
            position = cursor["position"] if i == start_phase else 0
            done = fn(report, repair, position)
            if done is not None:  # budget ran out inside this phase
                self._save_cursor(name, done)
                report.partial = True
                report.notes.append(
                    f"record budget exhausted in phase {name!r}; cursor saved"
                )
                break
        else:
            self._drop_cursor()
        self._t_checked.inc(report.records_checked)
        self._t_corrupt.inc(report.corrupt_found)
        self._t_repaired.inc(report.repaired)
        return report

    # -- phase 1: containers --------------------------------------------------
    def _scrub_containers(
        self, report: ScrubReport, repair: bool, position: int
    ) -> Optional[int]:
        repo = self.vault.repository
        ids = [cid for cid in repo.container_ids() if cid >= position]
        for cid in ids:
            if self._budget.exhausted():
                return cid
            try:
                tier = repo.tier_of(cid)
            except KeyError:
                continue  # removed since the id list was taken (gc race)
            try:
                if tier == "cold":
                    container, faults, nbytes, nrecords = (
                        self._check_cold_container(repo, cid)
                    )
                else:
                    container, faults, nbytes, nrecords = (
                        self._check_hot_container(repo, cid)
                    )
            except KeyError:
                continue  # gc race after the tier check
            except CorruptionError as exc:
                report.containers_scanned += 1
                report.corrupt_found += 1
                self._handle_unparseable_container(report, repair, cid, exc)
                continue
            report.containers_scanned += 1
            report.bytes_read += nbytes
            self._budget.charge_bytes(nbytes)
            report.records_checked += nrecords
            self._budget.charge_records(nrecords)
            if not faults:
                continue
            report.corrupt_found += len(faults)
            if repair:
                if container is None:
                    container = repo.fetch(cid)
                self._repair_payloads(report, cid, container, faults)
            else:
                for fault in faults:
                    report.add(ScrubFinding(
                        "container",
                        f"container {cid}: {fault.reason} for "
                        f"{fault.fingerprint.hex()[:12]}",
                        container_id=cid, fingerprint=fault.fingerprint,
                        offset=fault.file_offset,
                    ))
        return None

    def _check_hot_container(self, repo, cid: int):
        """Full-image check of a hot container (one local file read)."""
        blob = repo.read_image(cid)
        container = Container.deserialize(cid, blob, capacity=repo.container_bytes)
        return (
            container, container.verify_payloads(), len(blob),
            len(container.records),
        )

    def _check_cold_container(self, repo, cid: int):
        """Ranged check of a cold container — metadata from a bounded
        prefix GET, payloads from coalesced multi-range GETs; the image
        (and its zero padding in particular) is never downloaded whole.
        The container object is fetched lazily, only if repair needs it.
        """
        faults, nbytes = repo.verify_cold_payloads(cid)
        records, _ = repo.fetch_meta(cid)
        return None, faults, nbytes, len(records)

    def _fetch_good_payload(
        self, fp: Fingerprint, size: Optional[int]
    ) -> Optional[tuple]:
        """A fingerprint-verified replacement as ``(payload, source)``, or
        ``None``.  ``source`` names who healed the record — the repair
        report carries it so operators know which copy saved the data.

        Sources, in order: the local chunk log (the record may still be
        sitting there from the crashed run that stored it), then each
        cluster peer.
        """
        for record in self.vault.tpds.chunk_log._records:
            if record.fingerprint == fp and record.data is not None:
                if _sha1(record.data) == fp:
                    return record.data, "local chunk log"
        for name, peer in self.peers:
            try:
                data = peer.read_chunk(fp)
            except Exception:
                continue  # miss, peer down, protocol error: try the next one
            if _sha1(data) == fp and (size is None or len(data) == size):
                return data, name
        return None

    def _repair_payloads(
        self, report: ScrubReport, cid: int, container: Container, faults
    ) -> None:
        data = bytearray(container.data)
        records: List[ChunkRecord] = list(container.records)
        fixed = 0
        for fault in faults:
            rec = container.record_for(fault.fingerprint)
            found = self._fetch_good_payload(rec.fingerprint, rec.size)
            if found is None:
                report.add(ScrubFinding(
                    "container",
                    f"container {cid}: {fault.reason} for "
                    f"{rec.fingerprint.hex()[:12]}, no intact source",
                    container_id=cid, fingerprint=rec.fingerprint,
                    offset=fault.file_offset, action="marked degraded",
                ))
                self._mark_degraded(report, rec.fingerprint)
                continue
            replacement, source = found
            data[rec.offset : rec.offset + rec.size] = replacement
            # Recompute the stored CRC from the verified payload (the rot
            # may have been in the CRC itself); unrepaired records keep
            # their original CRC so the damage stays visible to the next pass.
            i = records.index(rec)
            records[i] = ChunkRecord(rec.fingerprint, rec.size, rec.offset)
            fixed += 1
            report.add(ScrubFinding(
                "container",
                f"container {cid}: {fault.reason} for {rec.fingerprint.hex()[:12]}",
                container_id=cid, fingerprint=rec.fingerprint,
                offset=fault.file_offset, repaired=True,
                action=f"payload rewritten from {source}",
            ))
        if fixed:
            healed = Container(cid, records, bytes(data), container.capacity)
            # write_image heals in place on whichever tier holds the
            # container and invalidates the read/metadata caches.
            self.vault.repository.write_image(cid, healed.serialize())
            report.repaired += fixed

    def _handle_unparseable_container(
        self, report: ScrubReport, repair: bool, cid: int, exc: CorruptionError
    ) -> None:
        """Metadata section lost: rebuild from the index + repair sources.

        The index (and checking file) say which fingerprints the container
        held; if every one has an intact source, the container is rebuilt
        in place.  Anything missing is removed from the index and its
        catalogued files marked degraded; the damaged image moves to a
        ``.quarantine`` sibling either way, never silently overwritten
        until the rebuilt image is ready.
        """
        if not repair:
            report.add(ScrubFinding(
                "container", f"container {cid}: {exc}", container_id=cid,
                offset=exc.offset,
            ))
            return
        index = self.vault.tpds.index
        checking = self.vault.tpds.checking
        try:
            members = [fp for fp, c in index.iter_entries() if c == cid]
        except CorruptionError:
            # The index itself has rotted buckets (phase 3 will handle
            # them); the checking file is all we can trust right now.
            members = []
            report.notes.append(
                f"container {cid} rebuild: index unreadable, "
                "membership limited to the checking file"
            )
        members += [fp for fp, c in checking.pending().items()
                    if c == cid and fp not in members]
        recovered: Dict[Fingerprint, bytes] = {}
        sources: List[str] = []
        lost: List[Fingerprint] = []
        for fp in members:
            found = self._fetch_good_payload(fp, None)
            if found is None:
                lost.append(fp)
            else:
                recovered[fp], source = found
                if source not in sources:
                    sources.append(source)
        self.vault.repository.quarantine(cid)
        if recovered:
            records: List[ChunkRecord] = []
            blob = bytearray()
            for fp, payload in recovered.items():
                records.append(ChunkRecord(fp, len(payload), len(blob)))
                blob.extend(payload)
            rebuilt = Container(cid, records, bytes(blob), self.vault.container_bytes)
            self.vault.repository.write_image(cid, rebuilt.serialize())
        for fp in lost:
            index.delete(fp)
            self._mark_degraded(report, fp)
        if not lost:
            report.repaired += 1
            report.add(ScrubFinding(
                "container", f"container {cid}: {exc}", container_id=cid,
                offset=exc.offset, repaired=True,
                action=f"rebuilt from {len(recovered)} recovered chunks "
                f"(sources: {', '.join(sources) or 'none'}), "
                "damaged image quarantined",
            ))
        else:
            report.add(ScrubFinding(
                "container",
                f"container {cid}: {exc}; {len(lost)} of "
                f"{len(members)} chunks unrecoverable",
                container_id=cid, offset=exc.offset,
                action="quarantined, lost chunks dropped from index, "
                "affected files marked degraded",
            ))

    # -- phase 2: chunk log ---------------------------------------------------
    def _scrub_chunk_log(
        self, report: ScrubReport, repair: bool, position: int
    ) -> Optional[int]:
        log = self.vault.tpds.chunk_log
        corrupt = list(getattr(log, "corrupt_records", ()))
        intact = len(getattr(log, "_records", ()))
        report.log_records_scanned = intact + len(corrupt)
        report.records_checked += report.log_records_scanned
        self._budget.charge_records(report.log_records_scanned)
        report.bytes_read += getattr(log, "size_bytes", 0)
        quarantined = getattr(log, "quarantined_bytes", 0)
        if quarantined:
            report.notes.append(
                f"{quarantined} unscannable chunk-log bytes already quarantined at open"
            )
        if not corrupt:
            return None
        report.corrupt_found += len(corrupt)
        for offset, _payload in corrupt:
            report.add(ScrubFinding(
                "chunk log",
                f"record frame at offset {offset} failed its CRC",
                offset=offset,
                repaired=repair,
                action=(
                    "dropped on rewrite, raw payload quarantined" if repair
                    else "excluded from replay"
                ),
            ))
        if repair and hasattr(log, "rewrite_intact"):
            dropped = log.rewrite_intact()
            report.repaired += dropped
            report.notes.append(
                f"chunk log rewritten without {dropped} corrupt frames"
            )
        return None

    # -- phase 3: index buckets -----------------------------------------------
    def _scrub_index(
        self, report: ScrubReport, repair: bool, position: int
    ) -> Optional[int]:
        index = self.vault.tpds.index
        store = index.store
        bad: List[int] = []
        for k in range(position, index.n_buckets):
            if self._budget.exhausted():
                if bad and repair:
                    self._repair_buckets(report, bad)
                return k
            blob = store.read(k * index.bucket_bytes, index.bucket_bytes)
            report.bytes_read += len(blob)
            self._budget.charge_bytes(len(blob))
            report.buckets_scanned += 1
            report.records_checked += 1
            self._budget.charge_records(1)
            try:
                unpack_bucket(blob, index.checksummed)
            except CorruptionError:
                report.corrupt_found += 1
                bad.append(k)
                report.add(ScrubFinding(
                    "index",
                    f"bucket {k} failed its CRC",
                    offset=k * index.bucket_bytes,
                    repaired=repair,
                    action=(
                        "zeroed and re-filled from container metadata" if repair
                        else "reported (entries unreadable)"
                    ),
                ))
        if bad and repair:
            self._repair_buckets(report, bad)
        return None

    def _repair_buckets(self, report: ScrubReport, bad: List[int]) -> None:
        """Zero the damaged buckets, then re-insert every stored fingerprint
        the index no longer resolves (Section 4.1's reconstruction, scoped
        to the damage instead of the whole index)."""
        index = self.vault.tpds.index
        checking = self.vault.tpds.checking
        for k in bad:
            index.write_bucket(Bucket(k, [], index.bucket_capacity))
        reinserted = 0
        for fp, cid in self.vault.repository.iter_index_entries():
            if fp in checking:
                continue  # pre-SIU window: the checking file covers it
            try:
                if index.lookup(fp) is None:
                    index.insert(fp, cid)
                    reinserted += 1
            except IndexFullError:
                report.notes.append(
                    "index full during bucket repair; run recover-index "
                    "after scaling"
                )
                break
            except CorruptionError:
                # Home bucket still rotted (budget stopped the scan before
                # reaching it); the next pass will zero and refill it.
                continue
        report.repaired += len(bad)
        report.entries_reinserted += reinserted
        self.vault._flush_index()

    # -- degraded-file bookkeeping --------------------------------------------
    def _mark_degraded(self, report: ScrubReport, fp: Fingerprint) -> None:
        """Flag every catalogued file referencing a lost chunk."""
        report.degraded_files.extend(
            f"run {run_id}: {path}"
            for run_id, path in self.vault.catalog.mark_degraded(fp)
        )
