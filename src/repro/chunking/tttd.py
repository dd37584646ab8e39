"""TTTD — the two-threshold, two-divisor chunking algorithm (ESHGHI05).

Cited by the paper (Section 7) among the improvements to basic CDC.  Plain
CDC hits its ``max_size`` bound on low-entropy regions and cuts there
arbitrarily, destroying the content-defined property exactly where it is
needed.  TTTD adds a second, easier *backup* divisor: while scanning past
``min_size``, positions matching the backup condition are remembered; if
the main divisor never fires before ``max_size``, the chunk ends at the
last backup anchor instead of the hard bound.  Backup anchors are still
content-defined, so edits inside long anchor-poor stretches shift far
fewer boundaries.

Shares :class:`~repro.chunking.cdc.AnchorCutter` with
:class:`~repro.chunking.cdc.ContentDefinedChunker`: one fingerprint pass
feeds both the main and backup conditions, and only the fall-back rule
differs.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.chunking.cdc import AnchorCutter, Chunk
from repro.chunking.rabin import RABIN_WINDOW_SIZE
from repro.core.fingerprint import fingerprint


class TTTDChunker:
    """Two-threshold two-divisor content-defined chunking.

    Parameters
    ----------
    avg_bits:
        Main divisor width: expected chunk size ``2^avg_bits``.
    backup_bits:
        Backup divisor width; defaults to ``avg_bits - 1`` (twice as easy
        to match), per the original TTTD recommendation of ``D' ~ D/2``.
    min_size, max_size:
        The two thresholds.
    """

    def __init__(
        self,
        avg_bits: int = 13,
        min_size: int = 2 * 1024,
        max_size: int = 64 * 1024,
        backup_bits: int | None = None,
    ) -> None:
        if avg_bits < 2 or avg_bits > 48:
            raise ValueError("avg_bits out of range")
        if backup_bits is None:
            backup_bits = avg_bits - 1
        if not 1 <= backup_bits < avg_bits:
            raise ValueError("backup divisor must be easier than the main divisor")
        if min_size < RABIN_WINDOW_SIZE:
            raise ValueError("min_size must cover at least one window")
        if not min_size <= (1 << avg_bits) <= max_size:
            raise ValueError("expected size must lie within [min_size, max_size]")
        self.avg_bits = avg_bits
        self.backup_bits = backup_bits
        self.min_size = min_size
        self.max_size = max_size

    @property
    def expected_size(self) -> int:
        return 1 << self.avg_bits

    def cut_points(self, data: bytes) -> List[int]:
        """End offsets of every chunk (last one is ``len(data)``)."""
        return AnchorCutter.cut_buffer(
            data, self.min_size, self.max_size, self.avg_bits, self.backup_bits
        )

    def chunks(self, data: bytes) -> Iterator[Chunk]:
        """Chunk a buffer; yields :class:`Chunk` with SHA-1 fingerprints."""
        start = 0
        for cut in self.cut_points(data):
            payload = data[start:cut]
            yield Chunk(payload, fingerprint(payload), start)
            start = cut

    def forced_cut_fraction(self, data: bytes) -> float:
        """Fraction of cuts that hit the hard ``max_size`` threshold
        (the pathology TTTD exists to reduce)."""
        cuts = self.cut_points(data)
        if not cuts:
            return 0.0
        forced = 0
        start = 0
        for cut in cuts:
            if cut - start == self.max_size:
                forced += 1
            start = cut
        return forced / len(cuts)
