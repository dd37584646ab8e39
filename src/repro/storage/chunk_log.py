"""The dedup-1 on-disk chunk log (Sections 3.3 and 5.1).

During dedup-1 the File Store appends every chunk that survives the
preliminary filter as a ``<F, D(F)>`` group.  Dedup-2's chunk-storing pass
later replays the log *sequentially* — that sequential replay, at the log
disk's streaming rate, is what makes chunk storing fast and what preserves
SISL locality in the containers it fills.

Like containers, log records may be virtualized (size recorded, payload
regenerable) for fingerprint-stream workloads.
"""

from __future__ import annotations

import errno
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from repro.core.fingerprint import FINGERPRINT_SIZE, Fingerprint
from repro.durability.crc import crc32c, crc32c_combine
from repro.durability.errors import DiskFullError
from repro.durability.framing import (
    KIND_CHUNK_LOG,
    ScannedRecord,
    Superblock,
    frame_record,
    scan_frames,
    unpack_superblock,
)
from repro.durability.fsshim import LocalFs, io_retry
from repro.telemetry.registry import MetricsRegistry, get_registry


@dataclass(frozen=True)
class LogRecord:
    """One ``<F, D(F)>`` group in the chunk log.

    ``crc`` is the CRC32C ``data`` had when it was first written to the
    persistent log; chunk storing hands it on to the container so the
    payload is never checksummed a second time.  Only the in-memory
    :class:`ChunkLog` of the simulated systems leaves it ``None``.
    """

    fingerprint: Fingerprint
    size: int
    data: Optional[bytes] = None
    crc: Optional[int] = None

    @property
    def log_bytes(self) -> int:
        """On-disk footprint of the group (fingerprint + payload)."""
        return FINGERPRINT_SIZE + self.size


class ChunkLog:
    """An append-only log of chunk groups with sequential replay."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._records: List[LogRecord] = []
        self._bytes = 0
        registry = registry if registry is not None else get_registry()
        self._t_appends = registry.counter(
            "chunk_log.appends", "chunk groups appended to the dedup-1 log"
        ).labels()
        self._t_bytes = registry.counter(
            "chunk_log.bytes_appended", "on-disk bytes appended to the dedup-1 log"
        ).labels()
        self._t_replays = registry.counter(
            "chunk_log.replays", "sequential replays consumed by chunk storing"
        ).labels()

    def append(self, fp: Fingerprint, data: Optional[bytes] = None, size: Optional[int] = None) -> None:
        """Append one group (pass ``data``, or ``size`` alone when virtual)."""
        if data is not None:
            size = len(data)
        elif size is None:
            raise ValueError("either data or size is required")
        if size < 0:
            raise ValueError("chunk size must be non-negative")
        self._admit(LogRecord(fp, size, data))

    def _admit(self, record: LogRecord) -> None:
        self._records.append(record)
        self._bytes += record.log_bytes
        self._t_appends.inc()
        self._t_bytes.inc(record.log_bytes)

    def replay(self) -> Iterator[LogRecord]:
        """Sequentially iterate all groups in append order."""
        self._t_replays.inc()
        return iter(self._records)

    def clear(self) -> None:
        """Truncate the log (after dedup-2 has consumed it)."""
        self._records.clear()
        self._bytes = 0

    @property
    def size_bytes(self) -> int:
        """Total on-disk bytes the log occupies (drives replay time)."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)


#: Framed log-record payload header: fingerprint, size, flags.
_LOG_RECORD = struct.Struct(f"<{FINGERPRINT_SIZE}sIB")
_FLAG_HAS_DATA = 0x01


def _frame_group(record: LogRecord) -> bytes:
    """The on-disk frame of one group.

    The frame CRC covers ``record header + payload``; it is combined from
    the header's CRC and the payload CRC the record carries, so the
    payload bytes are not walked again.
    """
    flags = _FLAG_HAS_DATA if record.data is not None else 0
    head = _LOG_RECORD.pack(record.fingerprint, record.size, flags)
    if record.data is None:
        return frame_record(head)
    return frame_record(
        head + record.data, crc32c_combine(crc32c(head), record.crc, record.size)
    )


class PersistentChunkLog(ChunkLog):
    """A :class:`ChunkLog` persisted to a framed, checksummed file.

    The file opens with a ``CLOG`` superblock whose generation bumps on
    every :meth:`clear`, followed by one CRC frame per ``<F, D(F)>``
    group.  Opening an existing log recovers it:

    * a torn tail (crash mid-append) is truncated back to the last intact
      frame (``recovered_torn_bytes``);
    * interior frames with CRC damage stay on disk for the scrubber but
      are excluded from replay (``corrupt_records``);
    * an unscannable region (frame boundaries lost) or a damaged
      superblock is moved aside to ``<path>.quarantine`` so nothing is
      silently destroyed (``quarantined_bytes``).

    Appends hit the file *before* memory, so an acknowledged group always
    survives a crash; ENOSPC surfaces as :class:`DiskFullError`.
    """

    def __init__(
        self,
        path: Union[str, Path],
        registry: Optional[MetricsRegistry] = None,
        fs: Optional[LocalFs] = None,
    ) -> None:
        super().__init__(registry)
        self.path = Path(path)
        self.fs = fs if fs is not None else LocalFs()
        self.generation = 1
        self.recovered_torn_bytes = 0
        self.corrupt_records: List[Tuple[int, bytes]] = []  # (offset, raw payload)
        self.quarantined_bytes = 0
        reg = registry if registry is not None else get_registry()
        self._t_retries = reg.counter(
            "io.retries", "transient I/O errors retried by the storage layer"
        ).labels()
        self._open()

    # -- recovery-aware open --------------------------------------------------
    def _superblock(self) -> bytes:
        return Superblock(KIND_CHUNK_LOG, self.generation).pack()

    def _quarantine(self, blob: bytes) -> None:
        qpath = self.path.with_suffix(self.path.suffix + ".quarantine")
        self.fs.append_file(qpath, blob)
        self.quarantined_bytes += len(blob)

    def _open(self) -> None:
        if not self.fs.exists(self.path):
            self.fs.write_file(self.path, self._superblock())
            return
        blob = self.fs.read_file(self.path)
        try:
            sb, off = unpack_superblock(blob, artifact=f"chunk log {self.path.name}")
            if sb.kind != KIND_CHUNK_LOG:
                raise ValueError(f"superblock kind {sb.kind!r} is not a chunk log")
        except Exception:
            # The whole file is unreadable without its superblock: move it
            # aside for forensics and start a fresh generation.
            self._quarantine(blob)
            self.fs.write_file(self.path, self._superblock())
            return
        self.generation = sb.generation
        scan = scan_frames(blob, off, artifact=f"chunk log {self.path.name}")
        for rec in scan.records:
            if rec.ok:
                self._load_frame(rec)
            else:
                self.corrupt_records.append((rec.offset, rec.payload))
        if scan.stopped_reason is not None:
            # Frame boundaries are lost from here on; save the tail, then cut.
            self._quarantine(blob[scan.valid_end :])
            self.fs.truncate(self.path, scan.valid_end)
        elif scan.torn_bytes:
            self.recovered_torn_bytes = scan.torn_bytes
            self.fs.truncate(self.path, scan.valid_end)

    def _load_frame(self, frame: ScannedRecord) -> None:
        head = frame.payload[: _LOG_RECORD.size]
        fp, size, flags = _LOG_RECORD.unpack(head)
        data = crc = None
        if flags & _FLAG_HAS_DATA:
            data = frame.payload[_LOG_RECORD.size :]
            # The scan just verified frame.crc over head + data: split the
            # payload's own CRC back out of it instead of a second pass.
            crc = crc32c_combine(crc32c(head), frame.crc, len(data))
        # Reload bypasses the telemetry counters: these are not new appends.
        record = LogRecord(fp, size, data, crc)
        self._records.append(record)
        self._bytes += record.log_bytes

    # -- the ChunkLog interface, file-first -----------------------------------
    def append(self, fp: Fingerprint, data: Optional[bytes] = None, size: Optional[int] = None) -> None:
        if data is not None:
            size = len(data)
        elif size is None:
            raise ValueError("either data or size is required")
        # The one pass over a new chunk's bytes: everything downstream
        # (this frame, the container record) reuses the value.
        record = LogRecord(fp, size, data, crc32c(data) if data is not None else None)
        frame = _frame_group(record)
        try:
            io_retry(
                lambda: self.fs.append_file(self.path, frame),
                on_retry=self._t_retries.inc,
            )
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                raise DiskFullError(
                    f"chunk log {self.path.name}: {exc}", artifact="chunk log"
                ) from exc
            raise
        self._admit(record)

    def clear(self) -> None:
        # Rewriting the file would silently destroy any corrupt frames
        # still awaiting inspection; quarantine them first.
        for _offset, payload in self.corrupt_records:
            self._quarantine(payload)
        self.corrupt_records = []
        self.recovered_torn_bytes = 0
        self.generation += 1
        self.fs.write_file(self.path, self._superblock())
        super().clear()

    def rewrite_intact(self) -> int:
        """Rewrite the file from the intact in-memory records only.

        The scrubber's chunk-log repair: corrupt frames found at open are
        quarantined (their raw payloads appended to ``<path>.quarantine``)
        and dropped from the file, which is rebuilt as superblock + one
        fresh frame per surviving group.  Returns the number of frames
        dropped.  The generation is kept — the log's content (the groups
        awaiting dedup-2) is unchanged.
        """
        dropped = len(self.corrupt_records)
        for _offset, payload in self.corrupt_records:
            self._quarantine(payload)
        parts = [self._superblock()]
        parts.extend(_frame_group(record) for record in self._records)
        self.fs.write_file(self.path, b"".join(parts))
        self.corrupt_records = []
        self.recovered_torn_bytes = 0
        return dropped
