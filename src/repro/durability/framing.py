"""Checksummed on-disk framing: superblocks and CRC32C record frames.

Every persistent artifact (container files, the chunk log, the disk-index
sidecar) opens with a **superblock** and carries its records inside **CRC
frames**, so a reader can always tell *written-and-intact* from
*torn-mid-write* from *rotted-in-place*:

Superblock (26 bytes + payload)::

    magic      4s   b"DBSB"
    version    u16
    kind       4s   artifact class (b"CTR ", b"CLOG", b"IDX ")
    generation u64  monotonically increasing stamp per artifact
    paylen     u32  length of the kind-specific payload that follows
    payload    ...  kind-specific fields
    crc        u32  CRC32C of everything above

Record frame (12 bytes + payload)::

    magic      u32  0x4442_5245 ("DBRE")
    length     u32  payload length
    crc        u32  CRC32C of the payload
    payload    ...

Torn-tail semantics: a frame whose header or payload runs past EOF is a
*torn* record (crash mid-append) — recovery truncates back to the last
intact frame.  A complete frame whose CRC mismatches is a *corrupt*
record (bit rot) — it is quarantined, never silently truncated, because
valid data may follow it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.durability.crc import crc32c
from repro.durability.errors import CorruptionError, TornWriteError

SUPERBLOCK_MAGIC = b"DBSB"
SUPERBLOCK_VERSION = 1

#: Artifact kinds stamped into superblocks.
KIND_CONTAINER = b"CTR "
KIND_CHUNK_LOG = b"CLOG"
KIND_INDEX = b"IDX "

_SB_HEADER = struct.Struct("<4sH4sQI")
_CRC = struct.Struct("<I")

RECORD_MAGIC = 0x44425245  # "DBRE"
_FRAME_HEADER = struct.Struct("<III")

#: Fixed overhead of a record frame around its payload.
FRAME_OVERHEAD = _FRAME_HEADER.size


@dataclass(frozen=True)
class Superblock:
    """A parsed artifact superblock."""

    kind: bytes
    generation: int
    payload: bytes = b""
    version: int = SUPERBLOCK_VERSION

    def pack(self) -> bytes:
        head = _SB_HEADER.pack(
            SUPERBLOCK_MAGIC, self.version, self.kind, self.generation, len(self.payload)
        )
        body = head + self.payload
        return body + _CRC.pack(crc32c(body))

    @property
    def size(self) -> int:
        return _SB_HEADER.size + len(self.payload) + _CRC.size


def superblock_size(payload_len: int) -> int:
    """On-disk size of a superblock carrying ``payload_len`` payload bytes."""
    return _SB_HEADER.size + payload_len + _CRC.size


def unpack_superblock(blob: bytes, *, artifact: str = "artifact") -> Tuple[Superblock, int]:
    """Parse and verify a superblock at the start of ``blob``.

    Returns ``(superblock, offset past it)``.  Raises
    :class:`TornWriteError` when the blob ends inside the superblock and
    :class:`CorruptionError` on magic/version/CRC damage.
    """
    if len(blob) < _SB_HEADER.size + _CRC.size:
        raise TornWriteError(
            f"{artifact}: {len(blob)} bytes is too short for a superblock",
            artifact=artifact, offset=0,
        )
    magic, version, kind, generation, paylen = _SB_HEADER.unpack_from(blob, 0)
    if magic != SUPERBLOCK_MAGIC:
        raise CorruptionError(
            f"{artifact}: bad superblock magic {magic!r}", artifact=artifact, offset=0
        )
    end = _SB_HEADER.size + paylen
    if paylen > len(blob) or end + _CRC.size > len(blob):
        raise TornWriteError(
            f"{artifact}: superblock payload runs past end of data",
            artifact=artifact, offset=0,
        )
    (crc,) = _CRC.unpack_from(blob, end)
    if crc != crc32c(blob[:end]):
        raise CorruptionError(
            f"{artifact}: superblock CRC mismatch", artifact=artifact, offset=0
        )
    if version > SUPERBLOCK_VERSION:
        raise CorruptionError(
            f"{artifact}: superblock version {version} is from the future",
            artifact=artifact, offset=0,
        )
    return Superblock(kind, generation, bytes(blob[_SB_HEADER.size:end]), version), end + _CRC.size


def frame_record(payload: bytes, crc: Optional[int] = None) -> bytes:
    """Wrap one record payload in a CRC frame.

    ``crc`` is the payload's CRC32C when the caller already holds it (the
    chunk log combines it from the parts it checksummed once).
    """
    if crc is None:
        crc = crc32c(payload)
    return _FRAME_HEADER.pack(RECORD_MAGIC, len(payload), crc) + payload


@dataclass(frozen=True)
class ScannedRecord:
    """One record met while scanning a framed region."""

    offset: int        #: byte offset of the frame header
    payload: bytes
    crc: int           #: the CRC32C stored in the frame header
    ok: bool           #: it matched the payload
    error: Optional[str] = None


@dataclass
class ScanResult:
    """Outcome of scanning a framed region for records."""

    records: list            #: every complete frame met, in order (ScannedRecord)
    valid_end: int           #: offset just past the last intact frame
    torn_bytes: int = 0      #: trailing bytes belonging to an incomplete frame
    stopped_reason: Optional[str] = None  #: why the scan stopped early, if it did

    @property
    def corrupt(self) -> list:
        return [r for r in self.records if not r.ok]


def scan_frames(blob: bytes, start: int = 0, *, artifact: str = "artifact") -> ScanResult:
    """Walk record frames from ``start`` to the end of ``blob``.

    * incomplete trailing frame -> counted in ``torn_bytes`` (crash
      mid-append; safe to truncate back to ``valid_end``);
    * complete frame, CRC mismatch -> a corrupt record in ``records``
      with ``ok=False``; the scan continues past it;
    * bad frame magic -> the region is unscannable from there on
      (``stopped_reason``), since record boundaries are lost.
    """
    result = ScanResult(records=[], valid_end=start)
    off = start
    n = len(blob)
    while off < n:
        if off + _FRAME_HEADER.size > n:
            result.torn_bytes = n - off
            break
        magic, length, crc = _FRAME_HEADER.unpack_from(blob, off)
        if magic != RECORD_MAGIC:
            result.stopped_reason = f"bad record magic at offset {off}"
            break
        end = off + _FRAME_HEADER.size + length
        if end > n:
            result.torn_bytes = n - off
            break
        payload = bytes(blob[off + _FRAME_HEADER.size : end])
        ok = crc32c(payload) == crc
        result.records.append(
            ScannedRecord(
                off, payload, crc, ok, None if ok else f"CRC mismatch at offset {off}"
            )
        )
        off = end
        result.valid_end = off
    return result
