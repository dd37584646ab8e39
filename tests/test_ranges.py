"""Tests for the adjacency-coalescing geometry (repro.util.ranges) used
by the tiered chunk source and the ranged cold scrub (byte ranges)."""

import pytest

from repro.util.ranges import SegmentBuffer, Span, coalesce


def spans(*triples):
    return [Span(start, length, item) for start, length, item in triples]


class TestSpan:
    def test_end(self):
        assert Span(10, 5, "a").end == 15

    def test_frozen(self):
        with pytest.raises(Exception):
            Span(0, 1, None).start = 2


class TestCoalesce:
    def test_empty(self):
        assert coalesce([]) == []

    def test_adjacent_merge(self):
        groups = coalesce(spans((0, 10, "a"), (10, 10, "b"), (20, 5, "c")))
        assert len(groups) == 1
        g = groups[0]
        assert (g.start, g.end, g.length) == (0, 25, 25)
        assert g.items == ["a", "b", "c"]

    def test_gap_splits(self):
        groups = coalesce(spans((0, 10, "a"), (11, 10, "b")))
        assert [len(g) for g in groups] == [1, 1]

    def test_max_gap_bridges(self):
        groups = coalesce(spans((0, 10, "a"), (11, 10, "b")), max_gap=1)
        assert len(groups) == 1
        assert groups[0].length == 21  # the gap byte is included

    def test_unsorted_input_is_sorted(self):
        groups = coalesce(spans((20, 5, "c"), (0, 10, "a"), (10, 10, "b")))
        assert len(groups) == 1
        assert groups[0].items == ["a", "b", "c"]

    def test_overlapping_spans_merge(self):
        groups = coalesce(spans((0, 10, "a"), (5, 10, "b")))
        assert len(groups) == 1
        assert groups[0].end == 15

    def test_max_items_caps_group(self):
        groups = coalesce(
            spans((0, 1, 0), (1, 1, 1), (2, 1, 2), (3, 1, 3)), max_items=2
        )
        assert [len(g) for g in groups] == [2, 2]

    def test_max_span_caps_group_bytes(self):
        groups = coalesce(
            spans((0, 10, "a"), (10, 10, "b"), (20, 10, "c")), max_span=20
        )
        assert [g.length for g in groups] == [20, 10]


class TestSegmentBuffer:
    def test_read_within_segment(self):
        buf = SegmentBuffer()
        buf.add(100, b"hello world")
        assert buf.read(100, 5) == b"hello"
        assert buf.read(106, 5) == b"world"

    def test_uncovered_raises_keyerror(self):
        buf = SegmentBuffer()
        buf.add(100, b"hello")
        with pytest.raises(KeyError):
            buf.read(0, 5)
        with pytest.raises(KeyError):
            buf.read(103, 5)  # runs off the end of the segment

    def test_covers(self):
        buf = SegmentBuffer()
        buf.add(10, b"abcdef")
        assert buf.covers(10, 6)
        assert buf.covers(12, 2)
        assert not buf.covers(9, 2)
        assert not buf.covers(14, 5)

    def test_fetched_bytes_accumulates(self):
        buf = SegmentBuffer()
        buf.add(0, b"aaa")
        buf.add(100, b"bbbb")
        assert buf.fetched_bytes == 7

    def test_zero_length_read(self):
        buf = SegmentBuffer()
        buf.add(0, b"abc")
        assert buf.read(1, 0) == b""


class TestSharedGeometry:
    def test_byte_ranges_and_plan_indices_use_one_shape(self):
        # Unit-length spans (positions) and payload byte ranges group the
        # same way: the geometry does not care what the axis measures.
        plan = spans((3, 1, "fp3"), (4, 1, "fp4"), (9, 1, "fp9"))
        byte_ranges = spans((300, 100, "r0"), (400, 100, "r1"), (900, 10, "r2"))
        assert [g.items for g in coalesce(plan)] == [["fp3", "fp4"], ["fp9"]]
        assert [len(g) for g in coalesce(byte_ranges)] == [2, 1]
