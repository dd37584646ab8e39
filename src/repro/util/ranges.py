"""Adjacent-range coalescing for batched ranged reads.

Two readers in the tree turn many small reads of one container into a few
ranged requests:

* the tiered chunk source (:mod:`repro.backend.planner`) coalesces the
  payload ranges of upcoming planned chunks into one multi-range GET;
* the ranged cold scrub
  (:meth:`repro.storage.tiered.TieredChunkRepository.verify_cold_payloads`)
  verifies a cold container without downloading its padding.

Both reduce to the same question — *which spans of a sorted sequence are
close enough to fetch together?* — so the grouping lives here once, with
its own unit tests.

A :class:`Span` is ``(start, length, item)`` on the batching axis (byte
offsets for range GETs).  :func:`coalesce` groups sorted spans while the
gap to the next span stays within ``max_gap`` and the group stays under its
caps; a group's ``start``/``end`` give the single fetch that covers every
member (gap bytes included — deliberate over-fetch that trades waste for
request count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Iterable, List, Optional, TypeVar

T = TypeVar("T")

#: Adjacent payload ranges closer than this are coalesced into one range
#: of a multi-range GET — fetching a small gap is cheaper than the
#: per-range overhead of splitting around it.
RANGE_GAP = 4096


@dataclass(frozen=True)
class Span(Generic[T]):
    """One item occupying ``[start, start + length)`` on the batching axis."""

    start: int
    length: int
    item: T

    @property
    def end(self) -> int:
        return self.start + self.length


@dataclass
class SpanGroup(Generic[T]):
    """A run of spans one fetch can cover."""

    spans: List[Span[T]]

    @property
    def start(self) -> int:
        return self.spans[0].start

    @property
    def end(self) -> int:
        return max(s.end for s in self.spans)

    @property
    def length(self) -> int:
        """Bytes (or slots) the covering fetch spans, gaps included."""
        return self.end - self.start

    @property
    def items(self) -> List[T]:
        return [s.item for s in self.spans]

    def __len__(self) -> int:
        return len(self.spans)


def coalesce(
    spans: Iterable[Span[T]],
    *,
    max_gap: int = 0,
    max_items: Optional[int] = None,
    max_span: Optional[int] = None,
) -> List[SpanGroup[T]]:
    """Group spans that are adjacent (within ``max_gap``) into fetch groups.

    ``spans`` is sorted by ``start`` first, so callers may pass any order.
    A new group opens when the next span starts more than ``max_gap`` past
    the current group's end, when the group already holds ``max_items``
    spans, or when extending it would push the covered extent past
    ``max_span``.  Zero-length inputs yield zero groups.

    Overlapping spans always share a group (an overlap is a gap of less
    than zero); duplicate spans are kept — deduplication is the caller's
    business, not the geometry's.
    """
    if max_gap < 0:
        raise ValueError("max_gap must be >= 0")
    if max_items is not None and max_items < 1:
        raise ValueError("max_items must be >= 1")
    if max_span is not None and max_span < 1:
        raise ValueError("max_span must be >= 1")
    ordered = sorted(spans, key=lambda s: (s.start, s.end))
    groups: List[SpanGroup[T]] = []
    current: Optional[SpanGroup[T]] = None
    current_end = 0
    for span in ordered:
        if current is not None:
            too_far = span.start > current_end + max_gap
            too_many = max_items is not None and len(current) >= max_items
            too_wide = max_span is not None and (
                max(current_end, span.end) - current.start > max_span
            )
            if too_far or too_many or too_wide:
                current = None
        if current is None:
            current = SpanGroup([span])
            groups.append(current)
            current_end = span.end
        else:
            current.spans.append(span)
            current_end = max(current_end, span.end)
    return groups


class SegmentBuffer:
    """Random-access reads over a handful of fetched segments.

    A planner fetches a few coalesced ranges of a remote object; records
    then read their exact payload slices back out.  ``read`` raises
    ``KeyError`` when no fetched segment covers the requested range, so a
    planner bug surfaces as a loud miss instead of silent short data.
    """

    def __init__(self) -> None:
        self._segments: List[tuple] = []  # (start, bytes), insertion order

    def add(self, start: int, data: bytes) -> None:
        self._segments.append((start, data))

    def read(self, offset: int, length: int) -> bytes:
        for start, data in self._segments:
            if start <= offset and offset + length <= start + len(data):
                lo = offset - start
                return data[lo : lo + length]
        raise KeyError(
            f"no fetched segment covers [{offset}, {offset + length})"
        )

    def covers(self, offset: int, length: int) -> bool:
        try:
            self.read(offset, length)
            return True
        except KeyError:
            return False

    @property
    def fetched_bytes(self) -> int:
        return sum(len(data) for _, data in self._segments)
