"""A chunk repository persisted as container files on a real filesystem.

One serialized file per container (``containers/0000000000a3.ctr``), the
container ID in the name.  Self-description (Section 3.4) does the rest:
reopening scans the directory, and the disk index can always be rebuilt
from the metadata sections alone.  It is the one implementation of such a
directory: a vault's ``containers/`` (through the tiered subclass), each
origin's ``replicas/<origin>/`` and a rebuilt vault all go through it.

Interface-compatible with :class:`~repro.storage.repository.ChunkRepository`
for everything the single-server stack uses (allocate/store/fetch/locate,
recovery iteration, byte accounting).  It is a plain store: every fetch
reads the file (metadata and data sections, never the padding), metadata
scans read the metadata section alone, and sweeps stream one container
at a time.  The read cache above it is the chunk store's LPC
(:mod:`repro.storage.lpc`).
"""

from __future__ import annotations

import errno
from contextlib import suppress
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple, Union

from repro.core.fingerprint import MAX_CONTAINER_ID
from repro.durability.errors import DiskFullError
from repro.durability.fsshim import LocalFs, io_retry
from repro.storage.container import CONTAINER_SIZE, ChunkRecord, Container

_SUFFIX = ".ctr"


class FileChunkRepository:
    """A single-node, on-disk container log."""

    def __init__(
        self,
        root: Union[str, Path],
        container_bytes: int = CONTAINER_SIZE,
        create: bool = True,
        fs: Optional[LocalFs] = None,
        on_retry: Optional[Callable[[], None]] = None,
    ) -> None:
        self.root = Path(root)
        self.container_bytes = container_bytes
        self.fs = fs if fs is not None else LocalFs()
        self.on_retry = on_retry
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise FileNotFoundError(f"no repository at {self.root}")
        self._ids = {int(p.stem, 16) for p in self.root.glob(f"*{_SUFFIX}")}
        self._next_id = max(self._ids) + 1 if self._ids else 0

    def path_for(self, container_id: int) -> Path:
        """On-disk path of a container image (scrub reads these raw)."""
        return self.root / f"{container_id:012x}{_SUFFIX}"

    def _existing(self, container_id: int) -> Path:
        path = self.path_for(container_id)
        if not self.fs.exists(path):
            raise KeyError(f"container {container_id} not in repository")
        return path

    def _open(self, container_id: int):
        return open(self._existing(container_id), "rb")

    # -- the ChunkRepository interface ----------------------------------------
    def allocate_id(self) -> int:
        cid = self._next_id
        if cid > MAX_CONTAINER_ID:
            raise OverflowError("40-bit container ID space exhausted")
        self._next_id += 1
        return cid

    def store(self, container: Container, affinity: Optional[int] = None) -> int:
        if container.container_id in self:
            raise ValueError(f"container {container.container_id} already stored")
        self.write_image(container.container_id, container.serialize())
        return 0  # single node

    def write_image(self, container_id: int, blob: bytes) -> None:
        """Write (or overwrite) one container image as given.

        The one write path of the directory: transient errors are retried,
        and a full disk raises :class:`DiskFullError` with no torn file
        left behind — the file never landed, so callers can abort cleanly
        and resume.
        """
        path = self.path_for(container_id)
        try:
            io_retry(lambda: self.fs.write_file(path, blob), on_retry=self.on_retry)
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
            with suppress(OSError):
                if self.fs.exists(path):
                    self.fs.unlink(path)
            self._ids.discard(container_id)
            raise DiskFullError(
                f"container {container_id}: {exc}", artifact="container"
            ) from exc
        self._ids.add(container_id)

    def read_image(self, container_id: int) -> bytes:
        """The full serialized image (replication, ``CONTAINER_FETCH``,
        scrub repair)."""
        return self.fs.read_file(self._existing(container_id))

    def fetch(self, container_id: int) -> Container:
        with self._open(container_id) as fh:
            return Container.read(
                container_id, lambda offset, n: self.fs.pread(fh, offset, n),
                capacity=self.container_bytes,
            )

    def remove(self, container_id: int) -> None:
        """Delete a container (garbage collection of dead containers)."""
        self.fs.unlink(self._existing(container_id))
        self._ids.discard(container_id)

    def locate(self, container_id: int) -> int:
        if container_id not in self:
            raise KeyError(f"container {container_id} not in repository")
        return 0

    def __contains__(self, container_id: int) -> bool:
        return self.path_for(container_id).exists()

    def __len__(self) -> int:
        return len(self._ids)

    def container_ids(self) -> list:
        return sorted(self._ids)

    def iter_containers(self) -> Iterator[Container]:
        for cid in self.container_ids():
            yield self.fetch(cid)

    def fetch_meta(self, container_id: int) -> Tuple[List[ChunkRecord], int]:
        """``(records, data_start)`` from the metadata section alone: a
        bounded prefix read, no payload bytes."""
        with self._open(container_id) as fh:
            return Container.read_meta(
                container_id, lambda offset, n: self.fs.pread(fh, offset, n)
            )

    def iter_index_entries(self) -> Iterator[Tuple[bytes, int]]:
        """(fingerprint, container ID) pairs — the recovery scan, from the
        metadata sections alone."""
        for cid in self.container_ids():
            for record in self.fetch_meta(cid)[0]:
                yield record.fingerprint, cid

    @property
    def stored_chunk_bytes(self) -> int:
        return sum(
            r.size for cid in self.container_ids() for r in self.fetch_meta(cid)[0]
        )
