"""Snapshot assembly and persistence.

The *snapshot document* is the one JSON artifact every surface shares: the
CLI prints it (``repro stats --telemetry``), the vault persists it across
process restarts (``<vault>/telemetry.json``), the CI smoke job validates
and uploads it, and the benchmark harness embeds it in bench results.  Its
shape is validated by :mod:`repro.telemetry.schema` and documented in
DESIGN.md §8.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.durability.fsshim import atomic_write
from repro.telemetry.clock import wall_now
from repro.telemetry.registry import MetricsRegistry, get_registry
from repro.telemetry.tracing import Tracer, get_tracer

#: Snapshot document version (bumped on incompatible shape changes).
SNAPSHOT_VERSION = 1

PathLike = Union[str, Path]


def build_snapshot(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> dict:
    """The full snapshot document for a registry (+ optional trace forest)."""
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    return {
        "version": SNAPSHOT_VERSION,
        "enabled": registry.enabled,
        "generated_at": wall_now(),
        "metrics": registry.snapshot_metrics(),
        "traces": tracer.to_dict_list() if tracer.enabled else [],
    }


def save_snapshot(doc: dict, path: PathLike) -> Path:
    """Write a snapshot document to ``path`` (atomic temp + rename)."""
    path = Path(path)
    atomic_write(path, json.dumps(doc, indent=1, default=float).encode())
    return path


def load_snapshot(path: PathLike) -> Optional[dict]:
    """Read a snapshot document back; ``None`` if the file does not exist."""
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def merge_snapshot_file(path: PathLike, registry: MetricsRegistry) -> bool:
    """Fold a persisted snapshot's metrics into ``registry`` (if present).

    Returns True when a snapshot was found and merged.  Counters and
    histograms accumulate across processes; gauges take the persisted value
    until live code overwrites them.
    """
    doc = load_snapshot(path)
    if doc is None:
        return False
    registry.merge_snapshot_metrics(doc.get("metrics", []))
    return True
