"""Content-defined chunking (CDC) with anchors, per LBFS (Section 3.2).

A position is an *anchor* when the low-order ``k`` bits of the Rabin
fingerprint of the 48-byte window ending there equal a predetermined
constant; anchors become chunk boundaries, so insertions and deletions only
perturb the chunks around the edit instead of re-aligning the whole file
(the fixed-size blocking pathology).

DEBAR's parameters: expected chunk size 8 KB (``k = 13``), with a 2 KB lower
bound and 64 KB upper bound to rule out the pathological cases LBFS
describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.chunking.rabin import RABIN_WINDOW_SIZE, SCAN_BLOCK, RabinFingerprint, WindowScanner
from repro.core.fingerprint import Fingerprint, fingerprint

#: Anchor constant compared against the low-order k bits of the window
#: fingerprint.  Any fixed value works; zero is avoided because long runs of
#: zero bytes have zero fingerprints, which would anchor at every position.
ANCHOR_MAGIC = 0x0078


@dataclass(frozen=True)
class Chunk:
    """One content-defined chunk: payload plus its SHA-1 fingerprint."""

    data: bytes
    fingerprint: Fingerprint
    offset: int

    @property
    def size(self) -> int:
        return len(self.data)


class AnchorCutter:
    """The min/max walk over a stream's anchors: the one cutter under CDC,
    TTTD and the streaming path.

    Feed it consecutive pieces of a stream; each call returns the absolute
    end offsets of the chunks that those bytes *decide*.  A chunk ends at the
    first main anchor at least ``min_size`` in; if none arrives within
    ``max_size`` it ends at the last backup anchor seen in that range (TTTD;
    plain CDC has no backup divisor), else at ``max_size``.  A cut is final
    as soon as its anchor, or the byte at ``max_size``, has been scanned, so
    nothing is ever looked at twice; callers only keep the bytes since the
    last cut.  Anchors inside the first ``min_size`` bytes of a chunk never
    count, which is also why the zero-padded windows at the start of the
    stream (``min_size >= 48``) cannot matter.
    """

    def __init__(
        self, min_size: int, max_size: int, main_bits: int, backup_bits: Optional[int] = None
    ) -> None:
        if backup_bits is not None and not 1 <= backup_bits < main_bits:
            raise ValueError("backup divisor must be easier than the main divisor")
        self.min_size = min_size
        self.max_size = max_size
        self._scanner = WindowScanner(main_bits)
        scalar = self._scanner.dtype
        main_mask = (1 << main_bits) - 1
        self._main_mask = scalar(main_mask)
        self._main_magic = scalar(ANCHOR_MAGIC & main_mask)
        # Both magics come from one constant and the backup mask is the
        # shorter (checked above), so every main anchor is also a backup
        # anchor: one comparison per block finds the candidates of both kinds.
        easy_mask = main_mask if backup_bits is None else (1 << backup_bits) - 1
        self._easy_mask = scalar(easy_mask)
        self._easy_magic = scalar(ANCHOR_MAGIC & easy_mask)
        self._scanned = 0  # bytes fed so far
        self._start = 0  # end of the last chunk decided
        self._fallback = 0  # last backup anchor in the open chunk's range

    @classmethod
    def cut_buffer(
        cls, data, min_size: int, max_size: int, main_bits: int, backup_bits: Optional[int] = None
    ) -> List[int]:
        """Every cut of one whole buffer (the last one is ``len(data)``).

        At most ``min_size`` bytes are one chunk whatever they hold, decided
        without setting up the kernel: a small-file backup makes one call
        per file.
        """
        n = len(data)
        if n <= min_size:
            return [n] if n else []
        cutter = cls(min_size, max_size, main_bits, backup_bits)
        return cutter.feed(data) + cutter.finish()

    def feed(self, data) -> List[int]:
        """Scan the next bytes of the stream; return the cuts they decide."""
        buf = np.frombuffer(data, dtype=np.uint8)
        cuts: List[int] = []
        for s in range(0, len(buf), SCAN_BLOCK):
            fps = self._scanner.scan(buf[s : s + SCAN_BLOCK])
            hits = np.flatnonzero((fps & self._easy_mask) == self._easy_magic)
            # The window ending at stream byte j anchors the cut offset j + 1.
            base = self._scanned + 1
            self._scanned += len(fps)
            is_main = (fps[hits] & self._main_mask) == self._main_magic
            for anchor, main in zip((hits + base).tolist(), is_main.tolist()):
                self._close_through(anchor - 1, cuts)
                if anchor < self._start + self.min_size:
                    continue
                if main:
                    self._cut(anchor, cuts)
                else:
                    self._fallback = anchor
            self._close_through(self._scanned, cuts)
        return cuts

    def finish(self) -> List[int]:
        """End of stream: the cuts of whatever is still open."""
        cuts: List[int] = []
        if self._fallback:
            self._cut(self._fallback, cuts)
        if self._start < self._scanned:
            self._cut(self._scanned, cuts)
        return cuts

    def _close_through(self, scanned: int, cuts: List[int]) -> None:
        """Cut every chunk whose whole ``max_size`` range has been scanned
        (through offset ``scanned``) without a main anchor."""
        while self._start + self.max_size <= scanned:
            self._cut(self._fallback or self._start + self.max_size, cuts)

    def _cut(self, offset: int, cuts: List[int]) -> None:
        cuts.append(offset)
        self._start = offset
        self._fallback = 0


class ContentDefinedChunker:
    """Divide byte streams into variable-sized, content-defined chunks.

    Parameters
    ----------
    avg_bits:
        ``k``; expected chunk size is ``2^k`` bytes (paper: 13 -> 8 KB).
    min_size, max_size:
        Hard bounds on chunk size (paper: 2 KB and 64 KB).
    """

    def __init__(
        self,
        avg_bits: int = 13,
        min_size: int = 2 * 1024,
        max_size: int = 64 * 1024,
    ) -> None:
        if avg_bits < 1 or avg_bits > 48:
            raise ValueError("avg_bits out of range")
        if min_size < RABIN_WINDOW_SIZE:
            raise ValueError("min_size must cover at least one window")
        if not min_size <= (1 << avg_bits) <= max_size:
            raise ValueError("expected size must lie within [min_size, max_size]")
        self.avg_bits = avg_bits
        self.min_size = min_size
        self.max_size = max_size
        self._mask = (1 << avg_bits) - 1
        self._magic = ANCHOR_MAGIC & self._mask

    @property
    def expected_size(self) -> int:
        """The expected chunk size ``2^k``."""
        return 1 << self.avg_bits

    # -- boundary computation ------------------------------------------------
    def cut_points(self, data: bytes) -> List[int]:
        """End offsets of every chunk of ``data`` (last one is ``len(data)``).

        A chunk ends at the first anchor at least ``min_size`` in, or at
        ``max_size`` if no anchor arrives (:class:`AnchorCutter`).
        """
        return AnchorCutter.cut_buffer(data, self.min_size, self.max_size, self.avg_bits)

    def cut_points_streaming(self, data: bytes) -> List[int]:
        """Reference implementation with the incremental rolling hash.

        Byte-at-a-time, restarting the window at each boundary exactly as a
        streaming backup client would.  Kept (and cross-checked in tests)
        because it is the ground truth the vectorised path must match.
        """
        n = len(data)
        cuts: List[int] = []
        rabin = RabinFingerprint()
        start = 0
        i = 0
        while i < n:
            value = rabin.roll(data[i])
            length = i + 1 - start
            if length >= self.max_size or (
                length >= self.min_size
                and rabin.primed
                and (value & self._mask) == self._magic
            ):
                cuts.append(i + 1)
                start = i + 1
                rabin.reset()
            i += 1
        if not cuts or cuts[-1] != n:
            cuts.append(n)
        return cuts if n else []

    # -- streaming --------------------------------------------------------------
    def chunks_from_stream(self, stream, read_size: Optional[int] = None) -> Iterator[Chunk]:
        """Chunk a binary file object in constant memory.

        Reads up to ``read_size`` bytes at a time (default ``8 * max_size``;
        short reads are fine) and emits every chunk as soon as its end is
        decided, holding only the bytes since the last cut.  The produced
        chunks are bit-identical to :meth:`chunks` on the whole buffer —
        verified by the test suite.

        Offsets are absolute positions in the stream.
        """
        if read_size is None:
            read_size = 8 * self.max_size
        if read_size < 1:
            raise ValueError("read_size must be positive")
        cutter = AnchorCutter(self.min_size, self.max_size, self.avg_bits)
        pending = bytearray()  # the bytes from ``offset`` on
        offset = 0
        while True:
            block = stream.read(read_size)
            cuts = cutter.feed(block) if block else cutter.finish()
            pending += block
            for cut in cuts:
                size = cut - offset
                payload = bytes(pending[:size])
                del pending[:size]
                yield Chunk(payload, fingerprint(payload), offset)
                offset = cut
            if not block:
                return

    # -- chunking ---------------------------------------------------------------
    def chunks(self, data: bytes) -> Iterator[Chunk]:
        """Chunk a buffer; yields :class:`Chunk` with SHA-1 fingerprints."""
        start = 0
        for cut in self.cut_points(data):
            payload = data[start:cut]
            yield Chunk(payload, fingerprint(payload), start)
            start = cut

    def chunk_stats(self, data: bytes) -> dict:
        """Summary statistics of a chunking run (for tuning and tests)."""
        sizes = []
        start = 0
        for cut in self.cut_points(data):
            sizes.append(cut - start)
            start = cut
        if not sizes:
            return {"count": 0, "mean": 0.0, "min": 0, "max": 0}
        return {
            "count": len(sizes),
            "mean": float(np.mean(sizes)),
            "min": int(min(sizes)),
            "max": int(max(sizes)),
        }


def chunk_bytes(data: bytes, **kwargs) -> List[Chunk]:
    """One-shot convenience: chunk a buffer with default DEBAR parameters."""
    return list(ContentDefinedChunker(**kwargs).chunks(data))
