"""The director's metadata manager and metadata store (Sections 3.1, 6.3).

The metadata manager keeps, per job run, the file metadata and *file
indices* — the sequences of fingerprints referencing each file's chunks —
that make backups restorable.  For a PB-scale system this metadata reaches
terabytes, so the paper adds a dedicated metadata storage subsystem able to
serve >250 jobs concurrently at >100 MB/s aggregate; :class:`MetadataStore`
models that subsystem with the same volume/served-time accounting used
everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.fingerprint import FINGERPRINT_SIZE, Fingerprint
from repro.simdisk import Meter, SimClock
from repro.simdisk.disk import DiskModel
from repro.util import MB


@dataclass(frozen=True)
class FileMetadata:
    """Per-file attributes backed up ahead of content (Section 3.2)."""

    path: str
    size: int
    mode: int = 0o644
    mtime: float = 0.0


@dataclass
class FileIndexEntry:
    """One file's restore recipe: metadata plus its fingerprint sequence."""

    metadata: FileMetadata
    fingerprints: List[Fingerprint] = field(default_factory=list)

    @property
    def index_bytes(self) -> int:
        """On-disk footprint of the file index itself."""
        return len(self.fingerprints) * FINGERPRINT_SIZE


class MetadataManager:
    """Job metadata: run records and file indices, keyed by run ID."""

    def __init__(self, store: Optional["MetadataStore"] = None) -> None:
        self._files: Dict[int, List[FileIndexEntry]] = {}
        self._run_fingerprints: Dict[int, List[Fingerprint]] = {}
        self.store = store

    def record_run_files(self, run_id: int, entries: Sequence[FileIndexEntry]) -> None:
        """Persist a run's file metadata and indices."""
        if run_id in self._files:
            raise ValueError(f"run {run_id} already recorded")
        self._files[run_id] = list(entries)
        flat: List[Fingerprint] = []
        for entry in entries:
            flat.extend(entry.fingerprints)
        self._run_fingerprints[run_id] = flat
        if self.store is not None:
            self.store.write(sum(e.index_bytes for e in entries) or FINGERPRINT_SIZE)

    def files_for_run(self, run_id: int) -> List[FileIndexEntry]:
        """All file index entries of one run (restore entry point)."""
        try:
            entries = self._files[run_id]
        except KeyError:
            raise KeyError(f"no metadata recorded for run {run_id}")
        if self.store is not None:
            self.store.read(sum(e.index_bytes for e in entries) or FINGERPRINT_SIZE)
        return entries

    def fingerprints_for_run(self, run_id: int) -> List[Fingerprint]:
        """The run's full fingerprint sequence — the filtering fingerprints
        the preliminary filter preloads for the *next* run of the job."""
        try:
            return self._run_fingerprints[run_id]
        except KeyError:
            raise KeyError(f"no metadata recorded for run {run_id}")

    def file_index(self, run_id: int, path: str) -> FileIndexEntry:
        """One file's index within a run."""
        for entry in self.files_for_run(run_id):
            if entry.metadata.path == path:
                return entry
        raise KeyError(f"{path} not in run {run_id}")

    def iter_run_fingerprints(self):
        """(run ID, fingerprint sequence) for every recorded run.

        The auditor's restorability sweep: every fingerprint a recorded
        backup references must still resolve to a stored chunk.  Iterates
        the in-memory records directly, charging no store traffic.
        """
        return iter(self._run_fingerprints.items())

    def __contains__(self, run_id: int) -> bool:
        return run_id in self._files


class MetadataStore:
    """The director's metadata storage subsystem (Section 6.3).

    An append-friendly store modeled at the paper's measured aggregate rate
    (>100 MB/s over >250 concurrent jobs); reads and writes charge a shared
    clock so director metadata traffic shows up in end-to-end timings.
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        disk: Optional[DiskModel] = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.meter = Meter(self.clock)
        self.disk = disk if disk is not None else DiskModel(
            seq_read_rate=100 * MB, seq_write_rate=100 * MB, random_io_time=0.5e-3
        )
        self.bytes_written = 0
        self.bytes_read = 0

    def write(self, nbytes: int) -> None:
        # Log-structured metadata store: writes append (no per-op seek),
        # which is how one spindle sustains hundreds of concurrent jobs.
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.bytes_written += nbytes
        self.meter.charge("metadata.write", self.disk.append_write_time(nbytes))

    def read(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.bytes_read += nbytes
        self.meter.charge("metadata.read", self.disk.append_read_time(nbytes))

    @property
    def aggregate_throughput(self) -> float:
        """Bytes served per simulated second so far."""
        total_time = self.meter.total("metadata")
        total_bytes = self.bytes_read + self.bytes_written
        return total_bytes / total_time if total_time else float("inf")
