"""Per-run delta objects: the archive's unit of shipment (DESIGN.md §15.1).

After dedup-2 seals a run, the origin cuts one **delta object** per run:
the chunks that are new to the job's chain plus the recipe diff against
the previous run.  A delta is self-describing and CRC32C-framed like
every other persistent artifact:

::

    Superblock  kind=b"DLTA", generation=run_id, payload=header JSON
    frame[0]    manifest JSON: {"files": {path: entry-or-null}}
    frame[1..]  chunk records: u32 fp_len + fp + payload

The header carries ``origin``/``job``/``run_id``/``base_run_id``/
``timestamp`` plus counts, so a reader can audit a delta without its
surrounding directory.  ``base_run_id == 0`` means the delta applies to
the empty recipe — a **base image**.  A ``full`` delta's files map is the
complete recipe of ``run_id`` (no nulls are folded; everything else is
dropped), which is what a base image is and what the origin falls back
to when the predecessor's recipe has already been forgotten — a full
delta is always a correct (if redundant) superset.

Merge algebra (DESIGN.md §15.2): ``Delta(a→b) ⊕ Delta(b→c) = Delta(a→c)``
— chunk union plus composed files maps (newer entries win, deletions
compose).  When the recipe at ``a`` is known the union is **pruned** to
the fingerprints of ``recipe(c) \\ recipe(a)``: any chunk a later run
still references either re-enters a later delta's recipe continuously
through ``c`` (so it survives the prune) or already lives in the chain
prefix — the chain-coverage induction that makes compaction safe.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.durability.errors import CorruptionError, TornWriteError
from repro.durability.framing import (
    Superblock,
    frame_record,
    scan_frames,
    unpack_superblock,
)
from repro.system.catalog import VaultError, entry_fingerprints, entry_to_doc

#: Superblock artifact kind stamped into delta objects.
KIND_DELTA = b"DLTA"

_FP_LEN = struct.Struct("<I")

#: A recipe entry, catalog-shaped (:func:`repro.system.catalog.entry_to_doc`).
Entry = Dict[str, object]
#: A recipe: path -> entry.  A diff maps path -> entry-or-None (removed).
Recipe = Dict[str, Entry]
FilesDiff = Dict[str, Optional[Entry]]


@dataclass
class Delta:
    """One parsed (or about-to-be-packed) per-run delta object."""

    origin: str
    job: str
    run_id: int
    base_run_id: int
    timestamp: float
    full: bool
    #: path -> catalog-shaped entry, or None for a removal.  When ``full``
    #: the map is the complete recipe of ``run_id`` (values never None).
    files: FilesDiff
    #: fp -> payload for every chunk new against the base recipe.
    chunks: Dict[bytes, bytes] = field(default_factory=dict)
    logical_bytes: int = 0

    @property
    def chunk_bytes(self) -> int:
        return sum(len(d) for d in self.chunks.values())


def recipe_of(entries) -> Recipe:
    """The recipe of a run's file index entries."""
    return {e.metadata.path: entry_to_doc(e) for e in entries}


def recipe_fps(recipe: Recipe) -> set:
    """Every fingerprint any entry of a recipe references."""
    return {fp for entry in recipe.values() for fp in entry_fingerprints(entry)}


def fold(recipe: Recipe, delta: Delta) -> Recipe:
    """Apply one delta's files map to a recipe, yielding the next recipe."""
    if delta.full:
        return {p: e for p, e in delta.files.items() if e is not None}
    out = dict(recipe)
    for path, entry in delta.files.items():
        if entry is None:
            out.pop(path, None)
        else:
            out[path] = entry
    return out


# -- cutting -----------------------------------------------------------------------
def cut_delta(
    vault,
    run,
    base_run_id: int = 0,
    origin: str = "",
) -> Delta:
    """Cut the delta for ``run`` against the recipe of ``base_run_id``.

    ``run`` is a :class:`~repro.system.vault.VaultRun`; the base recipe is
    looked up in the vault's catalog (same job).  The chunk log is already
    cleared by the inline dedup-2, so payloads are read back from the
    content-addressed chunk store — stable until ``forget`` + ``gc``, and
    byte-identical by construction.  When ``base_run_id`` is 0 or its
    recipe is gone from the catalog, the cut falls back to a ``full``
    delta (complete recipe, all referenced chunks).
    """
    base_recipe: Optional[Recipe] = {} if base_run_id == 0 else None
    if base_run_id:
        try:
            base_recipe = recipe_of(vault.run_entries(base_run_id, job=run.job))
        except VaultError:
            pass  # forgotten since: cut a full delta
    recipe = recipe_of(run.files)
    full = base_recipe is None or base_run_id == 0
    if full:
        files: FilesDiff = dict(recipe)
        new_fps = recipe_fps(recipe)
    else:
        files = {
            path: entry
            for path, entry in recipe.items()
            if base_recipe.get(path) != entry
        }
        for path in base_recipe:
            if path not in recipe:
                files[path] = None
        new_fps = recipe_fps(recipe) - recipe_fps(base_recipe)
    wanted = sorted(new_fps)
    reader = vault.reader(wanted)
    chunks = {fp: reader.read_chunk(fp) for fp in wanted}
    return Delta(
        origin=origin,
        job=run.job,
        run_id=run.run_id,
        base_run_id=base_run_id,
        timestamp=run.timestamp,
        full=full,
        files=files,
        chunks=chunks,
        logical_bytes=run.logical_bytes,
    )


# -- packing -----------------------------------------------------------------------
def pack_delta(delta: Delta) -> bytes:
    """Serialize a delta: superblock + manifest frame + chunk frames."""
    header = {
        "origin": delta.origin,
        "job": delta.job,
        "run_id": delta.run_id,
        "base_run_id": delta.base_run_id,
        "timestamp": delta.timestamp,
        "full": delta.full,
        "files": len(delta.files),
        "chunks": len(delta.chunks),
        "chunk_bytes": delta.chunk_bytes,
        "logical_bytes": delta.logical_bytes,
    }
    parts = [
        Superblock(
            KIND_DELTA, delta.run_id, json.dumps(header).encode("utf-8")
        ).pack(),
        frame_record(json.dumps({"files": delta.files}).encode("utf-8")),
    ]
    for fp in sorted(delta.chunks):
        data = delta.chunks[fp]
        parts.append(frame_record(_FP_LEN.pack(len(fp)) + fp + data))
    return b"".join(parts)


def unpack_header(blob: bytes, *, artifact: str = "delta") -> Tuple[dict, int]:
    """Parse and verify just the superblock header of a packed delta.

    Returns ``(header doc, offset past the superblock)``.
    """
    sb, offset = unpack_superblock(blob, artifact=artifact)
    if sb.kind != KIND_DELTA:
        raise CorruptionError(
            f"{artifact}: superblock kind {sb.kind!r} is not a delta",
            artifact=artifact, offset=0,
        )
    try:
        header = json.loads(sb.payload.decode("utf-8"))
    except ValueError as exc:
        raise CorruptionError(
            f"{artifact}: undecodable delta header: {exc}",
            artifact=artifact, offset=0,
        ) from None
    return header, offset


def unpack_delta(blob: bytes, *, artifact: str = "delta") -> Delta:
    """Parse and fully verify a packed delta (CRC per record).

    Raises :class:`TornWriteError` on a truncated tail and
    :class:`CorruptionError` on any CRC/kind/format damage — a delta is
    only ever accepted whole.
    """
    header, offset = unpack_header(blob, artifact=artifact)
    scan = scan_frames(blob, offset, artifact=artifact)
    if scan.corrupt or scan.stopped_reason:
        reason = scan.stopped_reason or scan.corrupt[0].error
        raise CorruptionError(
            f"{artifact}: corrupt delta record ({reason})",
            artifact=artifact, offset=scan.valid_end,
        )
    if scan.torn_bytes:
        raise TornWriteError(
            f"{artifact}: delta torn mid-write ({scan.torn_bytes} trailing bytes)",
            artifact=artifact, offset=scan.valid_end,
        )
    payloads = [r.payload for r in scan.records]
    expected = 1 + int(header["chunks"])
    if len(payloads) != expected:
        raise TornWriteError(
            f"{artifact}: {len(payloads)} records for a delta declaring {expected}",
            artifact=artifact, offset=scan.valid_end,
        )
    try:
        manifest = json.loads(payloads[0].decode("utf-8"))
        files = dict(manifest["files"])
    except (ValueError, KeyError) as exc:
        raise CorruptionError(
            f"{artifact}: undecodable delta manifest: {exc}",
            artifact=artifact, offset=offset,
        ) from None
    chunks: Dict[bytes, bytes] = {}
    for payload in payloads[1:]:
        (fp_len,) = _FP_LEN.unpack_from(payload, 0)
        fp = bytes(payload[_FP_LEN.size : _FP_LEN.size + fp_len])
        chunks[fp] = bytes(payload[_FP_LEN.size + fp_len :])
    return Delta(
        origin=str(header.get("origin", "")),
        job=str(header["job"]),
        run_id=int(header["run_id"]),
        base_run_id=int(header["base_run_id"]),
        timestamp=float(header["timestamp"]),
        full=bool(header["full"]),
        files=files,
        chunks=chunks,
        logical_bytes=int(header.get("logical_bytes", 0)),
    )


# -- merging -----------------------------------------------------------------------
def merge_deltas(
    older: Delta, newer: Delta, base_recipe: Optional[Recipe] = None
) -> Delta:
    """``Delta(a→b) ⊕ Delta(b→c) → Delta(a→c)``.

    ``base_recipe`` is the recipe at ``older.base_run_id`` when the caller
    knows it (the archive folds its chain prefix); with it — or trivially
    when the merged delta is full against base 0 — the chunk union is
    pruned to ``recipe(c) \\ recipe(a)``, which is compaction: chunks only
    the merged-away run referenced are dropped.  Without it the union is
    kept whole (always correct, merely redundant).
    """
    if older.job != newer.job:
        raise ValueError(f"cannot merge jobs {older.job!r} and {newer.job!r}")
    if newer.base_run_id != older.run_id:
        raise ValueError(
            f"deltas are not adjacent: {older.base_run_id}->{older.run_id} "
            f"then {newer.base_run_id}->{newer.run_id}"
        )
    if newer.full:
        files: FilesDiff = dict(newer.files)
        full = True
    elif older.full:
        files = dict(
            fold({p: e for p, e in older.files.items() if e is not None}, newer)
        )
        full = True
    else:
        files = dict(older.files)
        files.update(newer.files)
        full = False
    chunks = dict(older.chunks)
    chunks.update(newer.chunks)
    if base_recipe is None and older.base_run_id == 0:
        base_recipe = {}
    if base_recipe is not None:
        merged_probe = Delta(
            origin=newer.origin, job=newer.job, run_id=newer.run_id,
            base_run_id=older.base_run_id, timestamp=newer.timestamp,
            full=full, files=files,
        )
        final = fold(dict(base_recipe), merged_probe)
        keep = recipe_fps(final) - recipe_fps(base_recipe)
        chunks = {fp: d for fp, d in chunks.items() if fp in keep}
    return Delta(
        origin=newer.origin or older.origin,
        job=newer.job,
        run_id=newer.run_id,
        base_run_id=older.base_run_id,
        timestamp=newer.timestamp,
        full=full,
        files=files,
        chunks=chunks,
        logical_bytes=newer.logical_bytes,
    )
