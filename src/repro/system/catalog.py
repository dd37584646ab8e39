"""The run catalog: the one owner of ``catalog.json`` and its layout.

The paper's director keeps job chains, run records and file indices in
one metadata manager that every other component asks (Section 3.1); for
a vault that data is ``catalog.json``, and this module is the only code
that reads it, writes it or knows what is inside::

    {"version": 1,
     "index_n_bits": .., "index_bucket_bytes": .., "container_bytes": ..,
     "runs": [{"run_id", "job", "timestamp", "logical_bytes",
               "transferred_bytes",
               "files": [{"path", "size", "mode", "mtime",
                          "fingerprints": [hex, ..], "degraded"?}]}],
     "next_run_id"?: int, "cold"?: {..tier config..}}

Invariants (DESIGN.md §6): one writer (the holder of the vault lock);
every mutation is committed by one atomic replace of the whole file, so
any reader sees the previous catalog or the new one; run ids only grow;
fingerprints are hex in documents and ``bytes`` above this module.

The replica store, the router and ``rebuild_node`` hold a catalog
*document* (a mirror) and no vault, so the file and document helpers are
module-level functions and :class:`Catalog` is built from them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.director.metadata import FileIndexEntry, FileMetadata
from repro.durability.errors import CorruptionError
from repro.durability.fsshim import LocalFs, atomic_write

PathLike = Union[str, Path]

_FILE = "catalog.json"

#: Catalog schema version (bumped on incompatible layout changes).
CATALOG_VERSION = 1

#: Required keys and their JSON types: of the document, of a run payload.
_DOC_SHAPE = (
    ("version", int), ("index_n_bits", int), ("index_bucket_bytes", int),
    ("container_bytes", int), ("runs", list),
)
_RUN_SHAPE = (("run_id", int), ("job", str), ("files", list))
_RUN_SCALARS = ("run_id", "job", "timestamp", "logical_bytes", "transferred_bytes")


class VaultError(Exception):
    """Raised on catalog/layout problems."""


@dataclass
class VaultRun:
    """One completed backup recorded in the catalog."""

    run_id: int
    job: str
    timestamp: float
    logical_bytes: int
    transferred_bytes: int
    files: List[FileIndexEntry]

    def summary(self) -> Dict[str, object]:
        """The run-listing row (``RUNS`` on the wire, ``list --json``):
        file and chunk *counts*, so retention policies and operators can
        reason about run size without opening catalogs."""
        row = {key: getattr(self, key) for key in _RUN_SCALARS}
        row["files"] = len(self.files)
        row["chunks"] = sum(len(e.fingerprints) for e in self.files)
        return row


# -- entries and runs <-> documents ----------------------------------------------------
def entry_to_doc(entry: FileIndexEntry) -> dict:
    """The catalog-shaped document of one file index entry (archive
    deltas embed the same shape by design)."""
    return {
        "path": entry.metadata.path,
        "size": entry.metadata.size,
        "mode": entry.metadata.mode,
        "mtime": entry.metadata.mtime,
        "fingerprints": [fp.hex() for fp in entry.fingerprints],
    }


def entry_fingerprints(doc: dict) -> List[bytes]:
    return [bytes.fromhex(h) for h in doc["fingerprints"]]


def entry_from_doc(doc: dict) -> FileIndexEntry:
    """The inverse of :func:`entry_to_doc`."""
    return FileIndexEntry(
        FileMetadata(doc["path"], doc["size"], doc["mode"], doc["mtime"]),
        entry_fingerprints(doc),
    )


def _run_to_doc(run: VaultRun) -> dict:
    doc = {key: getattr(run, key) for key in _RUN_SCALARS}
    doc["files"] = [entry_to_doc(e) for e in run.files]
    return doc


def _run_from_doc(payload: dict) -> VaultRun:
    return VaultRun(
        *(payload[key] for key in _RUN_SCALARS),
        [entry_from_doc(f) for f in payload["files"]],
    )


# -- the file ------------------------------------------------------------------------
def has_document(folder: PathLike) -> bool:
    """Whether ``folder`` holds a catalog file (the stray temp file of an
    interrupted write does not count)."""
    return Path(folder, _FILE).exists()


def read_document(folder: PathLike, fs: Optional[LocalFs] = None) -> object:
    """Decode ``folder``'s catalog file; the result is *unvalidated*."""
    path = Path(folder, _FILE)
    try:
        return json.loads((fs if fs is not None else LocalFs()).read_file(path))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise CorruptionError(
            f"{path} is not decodable JSON ({exc})", artifact="catalog"
        ) from exc


def write_document(folder: PathLike, doc: dict, fs: Optional[LocalFs] = None) -> None:
    """Atomically replace ``folder``'s catalog file with ``doc``."""
    atomic_write(Path(folder, _FILE), json.dumps(doc, indent=1).encode(), fs)


# -- documents -----------------------------------------------------------------------
def _lacks(doc: object, shape) -> Optional[str]:
    """What ``doc`` is missing of ``shape``, or ``None`` when it conforms."""
    if not isinstance(doc, dict):
        return f"a JSON {type(doc).__name__} where an object belongs"
    for key, kind in shape:
        value = doc.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            return f"no {kind.__name__} {key!r}"
    return None


def check_document(doc: object) -> dict:
    """Validate a decoded catalog document before anything trusts it.

    Damage (a non-object, a missing or ill-typed key, a run payload
    without ``run_id``/``job``/``files``) raises
    :class:`~repro.durability.errors.CorruptionError` — the one typed
    path every command maps to exit 3 (DESIGN.md §10); a well-formed
    catalog of another schema version is an operational
    :class:`VaultError`.
    """
    flaw = _lacks(doc, _DOC_SHAPE[:1])
    if flaw is None and doc["version"] != CATALOG_VERSION:
        raise VaultError(f"catalog version {doc['version']} unsupported")
    flaw = flaw or _lacks(doc, _DOC_SHAPE)
    if flaw is None:
        flaws = (_lacks(payload, _RUN_SHAPE) for payload in doc["runs"])
        flaw = next((f"{f} in a run payload" for f in flaws if f), None)
    if flaw:
        raise CorruptionError(f"catalog is damaged: {flaw}", artifact="catalog")
    return doc


def mirrored_run_count(doc: object) -> int:
    """How many runs a *mirrored* document lists (0 for a shapeless one)."""
    return len(doc["runs"]) if _lacks(doc, (("runs", list),)) is None else 0


def mirrored_runs(doc: object, run_id: int) -> List[VaultRun]:
    """The runs numbered ``run_id`` in a *mirrored* catalog document.

    A mirror arrives from a peer — outside input — so nothing about its
    shape is assumed: a shapeless document has no runs and a malformed
    run payload is skipped, never raised.
    """
    found: List[VaultRun] = []
    for payload in doc["runs"] if mirrored_run_count(doc) else ():
        try:
            if payload["run_id"] == run_id:
                found.append(_run_from_doc(payload))
        except (KeyError, TypeError, ValueError):
            continue
    return found


# -- the catalog of one vault --------------------------------------------------------
class Catalog:
    """Load (or create) the catalog of the vault rooted at ``root``.

    The geometry arguments seed a *new* catalog; an existing one keeps
    what it recorded.  Nothing is written before :meth:`save` or the
    first mutation.
    """

    def __init__(
        self,
        root: PathLike,
        fs: Optional[LocalFs],
        index_n_bits: int,
        index_bucket_bytes: int,
        container_bytes: int,
    ) -> None:
        self.root = Path(root)
        self.fs = fs
        #: No catalog file existed: this one is new and not yet saved.
        self.created = not has_document(self.root)
        if not self.created:
            self._doc = self.snapshot()
        else:
            self._doc = {
                "version": CATALOG_VERSION,
                "index_n_bits": index_n_bits,
                "index_bucket_bytes": index_bucket_bytes,
                "container_bytes": container_bytes,
                "runs": [],
            }

    def save(self) -> None:
        """Commit the catalog: one atomic replace of the whole file."""
        write_document(self.root, self._doc, self.fs)

    def snapshot(self) -> dict:
        """A detached copy of the catalog as last committed — what
        ``CATALOG_FETCH`` answers and ``CATALOG_PUSH`` mirrors.  Decoded
        from the file, it shares nothing with the live catalog and, the
        commit being an atomic replace, is consistent whether or not the
        caller holds the vault lock."""
        return check_document(read_document(self.root, self.fs))

    # -- vault state ----------------------------------------------------------------
    @property
    def index_n_bits(self) -> int:
        return self._doc["index_n_bits"]

    @property
    def index_bucket_bytes(self) -> int:
        return self._doc["index_bucket_bytes"]

    @property
    def container_bytes(self) -> int:
        return self._doc["container_bytes"]

    @property
    def cold(self) -> Optional[dict]:
        """The persisted cold-tier configuration, if one was enabled."""
        return self._doc.get("cold")

    def set_index_n_bits(self, n_bits: int) -> None:
        self._doc["index_n_bits"] = n_bits
        self.save()

    def set_cold(self, config: dict) -> None:
        self._doc["cold"] = config
        self.save()

    # -- runs -----------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._doc["runs"])

    @property
    def logical_bytes(self) -> int:
        """Logical bytes summed over every recorded run."""
        return sum(p["logical_bytes"] for p in self._doc["runs"])

    def next_run_id(self) -> int:
        """Run ids are strictly increasing for the life of the vault — a
        forgotten run's id is never minted again (DESIGN.md §6): the
        archive's ``run_id <= tip`` idempotency rule would silently refuse
        to ship a reused id.  Catalogs written before the counter existed
        resume above their highest surviving run."""
        next_id = self._doc.get("next_run_id")
        if next_id is None:
            next_id = max((p["run_id"] for p in self._doc["runs"]), default=0) + 1
        return next_id

    def record(self, run: VaultRun) -> None:
        """Append a completed run and commit."""
        self._doc["next_run_id"] = run.run_id + 1
        self._doc["runs"].append(_run_to_doc(run))
        self.save()

    def runs(self, job: Optional[str] = None) -> List[VaultRun]:
        """All recorded runs, oldest first (optionally one job's chain)."""
        runs = [_run_from_doc(p) for p in self._doc["runs"]]
        if job is not None:
            runs = [r for r in runs if r.job == job]
        return runs

    def _payload(self, run_id: int, job: Optional[str]) -> dict:
        """The run-by-id scan, optionally pinned to one job's chain."""
        for payload in self._doc["runs"]:
            if payload["run_id"] == run_id and (job is None or payload["job"] == job):
                return payload
        scope = f"job {job!r}" if job else "this vault"
        raise VaultError(f"no run {run_id} for {scope}")

    def find(self, run_id: int, job: Optional[str] = None) -> VaultRun:
        """Run ``run_id``; raises :class:`VaultError` when the vault (or,
        with ``job``, that job's chain) does not record it."""
        return _run_from_doc(self._payload(run_id, job))

    def forget(self, run_id: int, job: Optional[str] = None) -> None:
        """Drop a run and commit; its id is never reused."""
        self._doc["runs"].remove(self._payload(run_id, job))
        self.save()

    # -- sweeps ---------------------------------------------------------------------
    def iter_run_fingerprints(self) -> Iterator[Tuple[int, List[bytes]]]:
        """``(run id, fingerprint sequence)`` for every recorded run,
        oldest first — what verify, gc, the auditor and the lifecycle
        scorer walk, one run decoded at a time."""
        for payload in self._doc["runs"]:
            yield payload["run_id"], [
                fp for f in payload["files"] for fp in entry_fingerprints(f)
            ]

    def mark_degraded(self, fp: bytes) -> List[Tuple[int, str]]:
        """Flag every file referencing the lost chunk ``fp`` and commit;
        returns the newly flagged ``(run id, path)`` pairs (none, and no
        write, on a repeat)."""
        hex_fp = fp.hex()
        flagged: List[Tuple[int, str]] = []
        for payload in self._doc["runs"]:
            for f in payload["files"]:
                if hex_fp in f["fingerprints"] and not f.get("degraded"):
                    f["degraded"] = True
                    flagged.append((payload["run_id"], f["path"]))
        if flagged:
            self.save()
        return flagged
