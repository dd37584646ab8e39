"""The Backup Engine running on client machines (Section 3.2).

To back up a file it performs, in order: *metadata backup* (file attributes
to the server), *anchoring* (CDC division into variable-sized chunks),
*chunk fingerprinting* (SHA-1 per chunk) and *content backup* (fingerprints
checked against the server's preliminary filter; only chunks the filter
admits are transferred).  To restore, it retrieves metadata and chunks from
the server and rebuilds files in a designated directory.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.chunking.cdc import Chunk, ContentDefinedChunker
from repro.director.metadata import FileIndexEntry, FileMetadata
from repro.telemetry.registry import MetricsRegistry, get_registry

PathLike = Union[str, Path]


class BackupEngine:
    """Reads a job dataset, chunks and fingerprints it, and moves content."""

    def __init__(
        self,
        client_name: str,
        chunker: Optional[ContentDefinedChunker] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not client_name:
            raise ValueError("client needs a name")
        self.client_name = client_name
        self.chunker = chunker if chunker is not None else ContentDefinedChunker()
        registry = registry if registry is not None else get_registry()
        label = {"client": client_name}
        self._t_files = registry.counter(
            "client.files_read", "files read and chunked by the backup engine"
        ).labels(**label)
        self._t_bytes = registry.counter(
            "client.bytes_read", "bytes read from dataset files"
        ).labels(**label)
        self._t_chunks = registry.counter(
            "client.chunks", "chunks produced by anchoring + fingerprinting"
        ).labels(**label)
        self._t_restored_files = registry.counter(
            "client.files_restored", "files rebuilt from the chunk store"
        ).labels(**label)
        self._t_restored_bytes = registry.counter(
            "client.bytes_restored", "bytes written while rebuilding files"
        ).labels(**label)

    # -- backup side -------------------------------------------------------------
    def scan_dataset(self, dataset: Sequence[PathLike]) -> List[Path]:
        """Expand the job's dataset attribute into the list of files to read."""
        files: List[Path] = []
        for item in dataset:
            path = Path(item)
            if path.is_dir():
                files.extend(sorted(p for p in path.rglob("*") if p.is_file()))
            elif path.is_file():
                files.append(path)
            else:
                raise FileNotFoundError(f"dataset item {path} does not exist")
        return files

    def read_file(self, path: PathLike) -> Tuple[FileMetadata, List[Chunk]]:
        """Anchoring + fingerprinting of one file."""
        path = Path(path)
        stat = path.stat()
        data = path.read_bytes()
        # The size on record is what was read and chunked, not what stat
        # announced: a file appended to (or truncated) in between would
        # otherwise commit a run whose every restore fails the size check.
        metadata = FileMetadata(
            path=str(path), size=len(data), mode=stat.st_mode & 0o7777, mtime=stat.st_mtime
        )
        chunks = list(self.chunker.chunks(data))
        self._t_files.inc()
        self._t_bytes.inc(len(data))
        self._t_chunks.inc(len(chunks))
        return metadata, chunks

    def iter_dataset(
        self, dataset: Sequence[PathLike]
    ) -> Iterator[Tuple[FileMetadata, List[Chunk]]]:
        """The full backup stream for a dataset, file by file."""
        for path in self.scan_dataset(dataset):
            yield self.read_file(path)

    def iter_stream(
        self, dataset: Sequence[PathLike]
    ) -> Iterator[Tuple[FileMetadata, List[Tuple[bytes, int, bytes]]]]:
        """:meth:`iter_dataset` as a backup server's dedup-1 stream: each
        chunk as ``(fingerprint, size, data)``."""
        for metadata, chunks in self.iter_dataset(dataset):
            yield metadata, [(c.fingerprint, c.size, c.data) for c in chunks]

    # -- restore side ----------------------------------------------------------------
    def restore_file(
        self,
        entry: FileIndexEntry,
        chunk_store,
        dest_dir: PathLike,
        strip_prefix: PathLike = "/",
    ) -> Path:
        """Rebuild one file from its file index into ``dest_dir``, reading
        chunks from ``chunk_store`` (anything with ``read_chunk``)."""
        dest_dir = Path(dest_dir)
        rel = Path(entry.metadata.path)
        try:
            rel = rel.relative_to(strip_prefix)
        except ValueError:
            rel = Path(str(rel).lstrip("/"))
        target = dest_dir / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "wb") as fh:
            for fp in entry.fingerprints:
                fh.write(chunk_store.read_chunk(fp))
        os.chmod(target, entry.metadata.mode)
        restored_size = target.stat().st_size
        self._t_restored_files.inc()
        self._t_restored_bytes.inc(restored_size)
        if restored_size != entry.metadata.size:
            raise IOError(
                f"restore of {entry.metadata.path} produced {restored_size} bytes, "
                f"expected {entry.metadata.size}"
            )
        return target

    def restore_run(
        self,
        entries: Iterable[FileIndexEntry],
        chunk_store,
        dest_dir: PathLike,
        strip_prefix: PathLike = "/",
    ) -> List[Path]:
        """Restore every file of a job run."""
        return [
            self.restore_file(entry, chunk_store, dest_dir, strip_prefix)
            for entry in entries
        ]
