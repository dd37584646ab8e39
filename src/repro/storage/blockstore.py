"""Fixed-size random-access byte stores backing the disk index.

The disk index needs only three primitives — read a range, write a range,
report its size — so one store per medium satisfies one small interface:
an in-memory store (tests, simulations and scaled benchmarks; it holds
only the pages written) and a real file-backed store (vaults).
"""

from __future__ import annotations

import mmap
import os
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable, Optional, Union

from repro.durability.fsshim import LocalFs, io_retry


class BlockStore(ABC):
    """A fixed-size byte store with range reads and writes."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Total capacity in bytes."""

    @abstractmethod
    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``."""

    @abstractmethod
    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``."""

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ValueError(
                f"range [{offset}, {offset + length}) outside store of size {self.size}"
            )


class MemoryBlockStore(BlockStore):
    """A zero-initialised in-memory store on an anonymous private mapping.

    The kernel backs only the pages that have been written, so a large,
    mostly empty index geometry (the cluster experiments address hundreds
    of MB per part) costs memory in proportion to the buckets it touches,
    while reads and writes run at the speed of a dense buffer.
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self._buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)

    @property
    def size(self) -> int:
        return len(self._buf)

    def read(self, offset: int, length: int) -> bytes:
        self._check_range(offset, length)
        return self._buf[offset : offset + length]

    def write(self, offset: int, data: bytes) -> None:
        self._check_range(offset, len(data))
        self._buf[offset : offset + len(data)] = data


class FileBlockStore(BlockStore):
    """A store backed by a real sparse file.

    Created (and truncated to ``size``) if missing; reopened in place if
    present, so an on-disk index survives process restarts.

    I/O goes through an :class:`~repro.durability.fsshim.LocalFs` shim
    (injectable for fault testing); writes retry transient errors with
    backoff, reporting each retry via ``on_retry``.
    """

    def __init__(
        self,
        path: Union[str, Path],
        size: int,
        fs: Optional[LocalFs] = None,
        on_retry: Optional[Callable[[], None]] = None,
    ) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self._path = Path(path)
        self._size = size
        self._fs = fs if fs is not None else LocalFs()
        self.on_retry = on_retry
        exists = self._path.exists()
        self._fh = open(self._path, "r+b" if exists else "w+b")
        current = os.fstat(self._fh.fileno()).st_size
        if current < size:
            self._fh.truncate(size)
        elif current > size:
            raise ValueError(
                f"{self._path} is {current} bytes, larger than requested size {size}"
            )

    @property
    def path(self) -> Path:
        return self._path

    @property
    def size(self) -> int:
        return self._size

    def read(self, offset: int, length: int) -> bytes:
        self._check_range(offset, length)
        data = self._fs.pread(self._fh, offset, length)
        if len(data) < length:  # sparse tail reads return short on some OSes
            data += b"\x00" * (length - len(data))
        return data

    def write(self, offset: int, data: bytes) -> None:
        self._check_range(offset, len(data))
        io_retry(
            lambda: self._fs.pwrite(self._fh, offset, data),
            on_retry=self.on_retry,
        )

    def flush(self) -> None:
        """Flush buffered writes to the OS."""
        self._fh.flush()

    def close(self) -> None:
        """Close the backing file; further access raises."""
        self._fh.close()

    def commit_to(self, path: Union[str, Path]) -> None:
        """Atomically move the backing file over ``path`` and reopen there.

        The successor-index dance of capacity scaling builds the doubled
        index in a sibling temporary file and then replaces the original in
        one rename, so a crash mid-scale leaves the original intact.
        """
        target = Path(path)
        self.flush()
        self._fh.close()
        os.replace(self._path, target)
        self._path = target
        self._fh = open(self._path, "r+b")

    def unlink(self) -> None:
        """Close and delete the backing file (abandoned scaling temps)."""
        self._fh.close()
        if self._path.exists():
            self._path.unlink()

    def __enter__(self) -> "FileBlockStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
