"""Point-in-time restore from delta chains (DESIGN.md §15.5).

``repro restore --as-of <run>`` reconstructs a retained run byte-
identically from its job's chain: fold the files maps of every chain
segment up to the as-of point into the run's full recipe, collect the
chunk payloads those segments carry (the chain-coverage invariant
guarantees every referenced fingerprint resolves), and materialize the
files through the ordinary restore engine.  Works against a local
:class:`~repro.archive.store.ArchiveStore` or over the wire
(``ARCHIVE_STATUS`` to locate the chain, ``DELTA_FETCH`` per segment) —
the primary vault is not involved at all, which is the DR story.

Resolution rules: an as-of point is matched by ``(origin, job, run)``;
unqualified lookups sweep every chain, and a run id retained by more
than one chain raises instead of guessing — run ids are only unique per
origin vault.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.archive.delta import fold, unpack_delta
from repro.client.backup_client import BackupEngine
from repro.net import messages as m
from repro.storage.reader import ChunkReader
from repro.system.catalog import entry_from_doc
from repro.telemetry.registry import MetricsRegistry, get_registry


def resolve_point(
    origins: dict,
    as_of: int,
    job: Optional[str] = None,
    origin: Optional[str] = None,
) -> Tuple[str, str]:
    """Find the unique ``(origin, job)`` chain retaining run ``as_of``.

    ``origins`` is the ``ARCHIVE_STATUS`` inventory shape
    (``{origin: {job: {"points": [...]}}}``).  Raises ``KeyError`` when no
    chain retains the point or more than one does (qualify with ``--job``).
    """
    candidates: List[Tuple[str, str]] = []
    for o, jobs in origins.items():
        if origin is not None and o != origin:
            continue
        for j, doc in jobs.items():
            if job is not None and j != job:
                continue
            if as_of in doc.get("points", []):
                candidates.append((o, j))
    if not candidates:
        scope = f" for job {job!r}" if job else ""
        raise KeyError(f"no archived chain retains run {as_of}{scope}")
    if len(candidates) > 1:
        raise KeyError(
            f"run {as_of} is retained by chains {sorted(candidates)}; "
            "qualify the lookup with a job"
        )
    return candidates[0]


def _materialize(
    recipe: dict,
    chunks: Dict[bytes, bytes],
    dest,
    strip_prefix="/",
    registry: Optional[MetricsRegistry] = None,
) -> List[Path]:
    registry = registry if registry is not None else get_registry()
    entries = [entry_from_doc(recipe[path]) for path in sorted(recipe)]
    engine = BackupEngine("archive-restore", registry=registry)
    reader = ChunkReader([("delta chain", chunks)], registry=registry)
    paths = engine.restore_run(entries, reader, dest, strip_prefix)
    registry.counter(
        "archive.restores", "point-in-time restores served from delta chains"
    ).labels().inc()
    return paths


def restore_local(
    store,
    as_of: int,
    dest,
    strip_prefix="/",
    job: Optional[str] = None,
    origin: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
) -> List[Path]:
    """Restore ``as_of`` from a local :class:`ArchiveStore`."""
    inventory = {
        o: {j: {"points": store.points(o, j)} for j in store.jobs(o)}
        for o in store.origins()
    }
    o, j = resolve_point(inventory, as_of, job=job, origin=origin)
    recipe, chunks = store.restore_point(o, j, as_of)
    return _materialize(recipe, chunks, dest, strip_prefix, registry=registry)


def restore_remote(
    net,
    as_of: int,
    dest,
    strip_prefix="/",
    job: Optional[str] = None,
    origin: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
) -> List[Path]:
    """Restore ``as_of`` from a remote archive over one ``NetClient``.

    One ``ARCHIVE_STATUS`` locates the chain; one ``DELTA_FETCH`` per
    chain segment up to the as-of point pulls the deltas; folding and
    materialization happen client-side — the origin vault can be gone.
    """
    status = net.call_json(m.ARCHIVE_STATUS, {})
    o, j = resolve_point(
        status.get("origins", {}), as_of, job=job, origin=origin
    )
    recipe: dict = {}
    chunks: Dict[bytes, bytes] = {}
    for seg in status["origins"][o][j]["segments"]:
        if seg["run"] > as_of:
            break
        blob = net.call(
            m.DELTA_FETCH,
            m.encode_json(
                {"origin": o, "job": j, "base": seg["base"], "run": seg["run"]}
            ),
        )
        delta = unpack_delta(blob, artifact=f"{o}/{j}/{seg['base']}-{seg['run']}")
        recipe = fold(recipe, delta)
        chunks.update(delta.chunks)
    return _materialize(recipe, chunks, dest, strip_prefix, registry=registry)
