"""Fault-injectable filesystem shim under the persistent storage layers.

The storage stack never touches the filesystem directly for payload I/O;
it goes through an :class:`Fs` object offering a handful of primitives
(whole-file read/write, append, truncate, positioned read/write on an
open handle).  Production uses the passthrough :class:`LocalFs`; tests
swap in a :class:`FaultyFs` that injects the media faults an archival
store must survive — ENOSPC, EIO, short (torn) writes, bit flips — plus
an optional byte quota that turns a tmpdir into a "full disk".

:func:`io_retry` gives writes bounded retry with backoff for *transient*
errors (EIO/EAGAIN); ENOSPC is never retried — it propagates so dedup-2
can abort cleanly and resume once space frees.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Union

PathLike = Union[str, Path]

#: errnos worth retrying — transient media hiccups, not persistent states.
TRANSIENT_ERRNOS = frozenset({errno.EIO, errno.EAGAIN, errno.EINTR})


class LocalFs:
    """Passthrough filesystem primitives (the production shim)."""

    def read_file(self, path: PathLike) -> bytes:
        return Path(path).read_bytes()

    def write_file(self, path: PathLike, data: bytes) -> None:
        Path(path).write_bytes(data)

    def append_file(self, path: PathLike, data: bytes) -> None:
        with open(path, "ab") as fh:
            fh.write(data)

    def truncate(self, path: PathLike, size: int) -> None:
        with open(path, "r+b") as fh:
            fh.truncate(size)

    def unlink(self, path: PathLike) -> None:
        Path(path).unlink()

    def exists(self, path: PathLike) -> bool:
        return Path(path).exists()

    def file_size(self, path: PathLike) -> int:
        return os.stat(path).st_size

    def replace(self, src: PathLike, dst: PathLike) -> None:
        os.replace(src, dst)

    # positioned I/O on an already-open binary file object (the disk index)
    def pread(self, fh, offset: int, length: int) -> bytes:
        fh.seek(offset)
        return fh.read(length)

    def pwrite(self, fh, offset: int, data: bytes) -> None:
        fh.seek(offset)
        fh.write(data)


@dataclass
class FaultRule:
    """One injected fault.

    ``op`` is the shim method name (``"write_file"``, ``"pread"``, ... or
    ``"*"``); ``path_contains`` narrows by substring of the target path
    (empty matches all).  The rule skips its first ``after`` matching
    calls, then fires ``times`` times (``None`` = forever).

    Kinds: ``enospc`` (raise before writing), ``eio`` (raise before the
    operation), ``short_write`` (write a torn prefix, then raise EIO),
    ``bit_flip`` (XOR ``flip_mask`` into byte ``flip_offset`` of read
    results).
    """

    op: str
    kind: str
    path_contains: str = ""
    after: int = 0
    times: Optional[int] = 1
    flip_offset: int = 0
    flip_mask: int = 0x01
    fired: int = field(default=0, init=False)
    _skipped: int = field(default=0, init=False)

    def matches(self, op: str, path: str) -> bool:
        if self.op not in ("*", op):
            return False
        if self.path_contains and self.path_contains not in path:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        if self._skipped < self.after:
            self._skipped += 1
            return False
        return True


def _enospc(path: str) -> OSError:
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)


def _eio(path: str) -> OSError:
    return OSError(errno.EIO, os.strerror(errno.EIO), path)


class FaultyFs(LocalFs):
    """A :class:`LocalFs` that injects faults per a rule list and a quota.

    ``quota_bytes`` bounds the *net* bytes held by files written through
    the shim (``write_file``/``append_file``); exceeding it raises ENOSPC
    before any bytes land, and :meth:`unlink` gives the space back — so a
    test can fill the "disk", free something, and resume.  In-place
    ``pwrite`` (the pre-sized index file) is not charged.
    """

    def __init__(
        self, rules: Optional[List[FaultRule]] = None, *, quota_bytes: Optional[int] = None
    ) -> None:
        self.rules = list(rules or [])
        self.quota_bytes = quota_bytes
        self._charged: dict = {}  # path -> bytes charged against the quota
        self.faults_fired = 0

    @property
    def charged_bytes(self) -> int:
        return sum(self._charged.values())

    def _fault(self, op: str, path: str, kinds: tuple) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.kind in kinds and rule.matches(op, path):
                rule.fired += 1
                self.faults_fired += 1
                return rule
        return None

    def _charge(self, path: str, new_size: int) -> None:
        if self.quota_bytes is None:
            return
        total = self.charged_bytes - self._charged.get(path, 0) + new_size
        if total > self.quota_bytes:
            raise _enospc(path)
        self._charged[path] = new_size

    # -- write side -----------------------------------------------------------
    def write_file(self, path: PathLike, data: bytes) -> None:
        spath = str(path)
        if self._fault("write_file", spath, ("enospc",)):
            raise _enospc(spath)
        if self._fault("write_file", spath, ("eio",)):
            raise _eio(spath)
        self._charge(spath, len(data))
        rule = self._fault("write_file", spath, ("short_write",))
        if rule:
            super().write_file(path, data[: len(data) // 2])
            raise _eio(spath)
        super().write_file(path, data)

    def append_file(self, path: PathLike, data: bytes) -> None:
        spath = str(path)
        if self._fault("append_file", spath, ("enospc",)):
            raise _enospc(spath)
        if self._fault("append_file", spath, ("eio",)):
            raise _eio(spath)
        self._charge(spath, self._charged.get(spath, 0) + len(data))
        rule = self._fault("append_file", spath, ("short_write",))
        if rule:
            super().append_file(path, data[: len(data) // 2])
            raise _eio(spath)
        super().append_file(path, data)

    def truncate(self, path: PathLike, size: int) -> None:
        super().truncate(path, size)
        if str(path) in self._charged:
            self._charged[str(path)] = min(self._charged[str(path)], size)

    def unlink(self, path: PathLike) -> None:
        super().unlink(path)
        self._charged.pop(str(path), None)

    def replace(self, src: PathLike, dst: PathLike) -> None:
        super().replace(src, dst)
        if str(src) in self._charged:
            self._charged[str(dst)] = self._charged.pop(str(src))

    def pwrite(self, fh, offset: int, data: bytes) -> None:
        spath = getattr(fh, "name", "")
        if self._fault("pwrite", str(spath), ("eio",)):
            raise _eio(str(spath))
        super().pwrite(fh, offset, data)

    # -- read side ------------------------------------------------------------
    def _maybe_flip(self, op: str, path: str, data: bytes) -> bytes:
        out = data
        while True:
            rule = self._fault(op, path, ("bit_flip",))
            if rule is None:
                return out
            if out:
                buf = bytearray(out)
                buf[rule.flip_offset % len(buf)] ^= rule.flip_mask
                out = bytes(buf)

    def read_file(self, path: PathLike) -> bytes:
        spath = str(path)
        if self._fault("read_file", spath, ("eio",)):
            raise _eio(spath)
        return self._maybe_flip("read_file", spath, super().read_file(path))

    def pread(self, fh, offset: int, length: int) -> bytes:
        spath = str(getattr(fh, "name", ""))
        if self._fault("pread", spath, ("eio",)):
            raise _eio(spath)
        return self._maybe_flip("pread", spath, super().pread(fh, offset, length))


def atomic_write(path: PathLike, data: bytes, fs: Optional[LocalFs] = None) -> None:
    """Replace ``path`` with ``data`` so a reader sees the old file or the
    new one, never a torn mix: write a sibling ``<name>.tmp`` through the
    shim's ``write_file`` (so fault rules and quotas see it), then rename
    it over ``path``.  A failed write leaves ``path`` untouched and a stray
    temp file the next call overwrites.  ``fs`` defaults to a
    :class:`LocalFs` for callers that hold no shim.
    """
    fs = fs if fs is not None else LocalFs()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fs.write_file(tmp, data)
    fs.replace(tmp, path)


def flip_byte_on_disk(path: PathLike, offset: int, mask: int = 0x01) -> None:
    """Flip bits of one byte of a file in place (bit-rot injection helper)."""
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ mask]))


def io_retry(
    fn: Callable[[], object],
    *,
    attempts: int = 4,
    base_delay: float = 0.01,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[], None]] = None,
):
    """Run ``fn``, retrying transient OSErrors with exponential backoff.

    Only :data:`TRANSIENT_ERRNOS` are retried; ENOSPC and everything else
    propagate immediately.  ``on_retry`` fires once per retry (telemetry
    hook for the ``io.retries`` counter).
    """
    delay = base_delay
    for attempt in range(attempts):
        try:
            return fn()
        except OSError as exc:
            if exc.errno not in TRANSIENT_ERRNOS or attempt == attempts - 1:
                raise
            if on_retry is not None:
                on_retry()
            sleep(delay)
            delay *= 2
    raise AssertionError("unreachable")
