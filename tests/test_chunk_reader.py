"""The one chunk-read path (repro.storage.reader) against fake sources.

No sockets, no vault: a source here is a dict-backed object that records
every ``fetch(fp, upcoming)`` it is handed, so the tests pin the reader's
own contract — plan cursor, look-ahead window, ordered fall-through —
independently of any medium.  The wire source's partial-window rule is
exercised against a fake ``NetClient`` at the bottom.
"""

import math

import pytest

from repro.net import messages as m
from repro.net.client import READ_BATCH, RemoteError, RemoteUnavailable, WireSource
from repro.storage.reader import PLAN_WINDOW, ChunkReader
from repro.telemetry.registry import MetricsRegistry


def fp(i: int) -> bytes:
    return i.to_bytes(20, "big")


def payload(i: int) -> bytes:
    return b"chunk-%d" % i


class FakeSource:
    """Holds ``held`` chunk numbers; answers every upcoming one it holds."""

    def __init__(self, held, fail=None):
        self.chunks = {fp(i): payload(i) for i in held}
        self.calls = []  # (fp, upcoming) per fetch
        self.fail = fail
        self.closed = 0

    def fetch(self, want, upcoming):
        self.calls.append((want, list(upcoming)))
        if self.fail is not None:
            raise self.fail
        if want not in self.chunks:
            raise KeyError(want)
        return {p: self.chunks[p] for p in upcoming if p in self.chunks}

    def close(self):
        self.closed += 1


class TestPlanCursor:
    def test_planned_reads_batch_by_window(self):
        n = 3 * PLAN_WINDOW + 5
        source = FakeSource(range(n))
        reader = ChunkReader([("s", source)], [fp(i) for i in range(n)])
        assert [reader.read_chunk(fp(i)) for i in range(n)] == [
            payload(i) for i in range(n)
        ]
        assert len(source.calls) == math.ceil(n / PLAN_WINDOW)

    def test_window_never_exceeds_the_constant(self):
        n = 5 * PLAN_WINDOW
        source = FakeSource(range(n))
        reader = ChunkReader([("s", source)], [fp(i) for i in range(n)])
        for i in range(n):
            reader.read_chunk(fp(i))
        assert source.calls
        for want, upcoming in source.calls:
            assert upcoming[0] == want
            assert len(upcoming) <= PLAN_WINDOW
            assert len(set(upcoming)) == len(upcoming)

    def test_off_plan_read_does_not_advance_the_cursor(self):
        n = 2 * PLAN_WINDOW
        source = FakeSource(range(n + 1))
        reader = ChunkReader([("s", source)], [fp(i) for i in range(n)])
        assert reader.read_chunk(fp(n)) == payload(n)  # not on the plan
        assert source.calls == [(fp(n), [fp(n)])]
        for i in range(n):
            reader.read_chunk(fp(i))
        assert len(source.calls) == 1 + n // PLAN_WINDOW

    def test_unprimed_reader_is_the_per_chunk_baseline(self):
        source = FakeSource(range(10))
        reader = ChunkReader([("s", source)])
        for i in range(10):
            assert reader.read_chunk(fp(i)) == payload(i)
        assert source.calls == [(fp(i), [fp(i)]) for i in range(10)]

    def test_duplicate_fingerprint_later_in_the_plan_is_served(self):
        plan = [fp(0), fp(1), fp(0), fp(2), fp(0)]
        source = FakeSource(range(3))
        reader = ChunkReader([("s", source)], plan)
        assert [reader.read_chunk(p) for p in plan] == [
            payload(0), payload(1), payload(0), payload(2), payload(0)
        ]
        # Every re-read found its place on the plan (never an off-plan
        # single), and asked only for what was not already fetched.
        assert [up for _, up in source.calls] == [
            [fp(0), fp(1), fp(2)], [fp(0)], [fp(0)],
        ]

    def test_plan_may_be_any_iterable(self):
        source = FakeSource(range(4))
        reader = ChunkReader([("s", source)], (fp(i) for i in range(4)))
        assert reader.read_chunk(fp(0)) == payload(0)
        assert len(source.calls[0][1]) == 4


class TestFallThrough:
    def test_partial_window_falls_through_only_for_what_is_missing(self):
        plan = [fp(i) for i in range(6)]
        first = FakeSource([0, 1, 2, 5])
        second = FakeSource([3, 4])
        reader = ChunkReader([("first", first), ("second", second)], plan)
        assert [reader.read_chunk(p) for p in plan] == [payload(i) for i in range(6)]
        # The second source was asked once, at the first chunk the first
        # could not serve, and only for what was still missing.
        assert second.calls == [(fp(3), [fp(3), fp(4)])]
        assert [want for want, _ in first.calls] == [fp(0), fp(3)]

    def test_source_answering_without_the_chunk_is_a_miss(self):
        class Elsewhere:
            def fetch(self, want, upcoming):
                return {fp(9): payload(9)}

        reader = ChunkReader([("odd", Elsewhere()), ("ok", FakeSource([1, 9]))])
        assert reader.read_chunk(fp(1)) == payload(1)
        assert reader.last_source == "ok"
        # What the odd source did return is kept: no second fetch.
        assert reader.read_chunk(fp(9)) == payload(9)

    def test_all_sources_failing_raises_keyerror_naming_the_count(self):
        sources = [
            ("a", FakeSource([], fail=OSError("a is gone"))),
            ("b", FakeSource([])),
            ("c", FakeSource([], fail=RemoteUnavailable("c timed out"))),
        ]
        reader = ChunkReader(sources)
        with pytest.raises(KeyError, match="unavailable on all 3 sources"):
            reader.read_chunk(fp(1))
        assert all(len(source.calls) == 1 for _, source in sources)

    def test_lone_source_error_keeps_its_type(self):
        reader = ChunkReader([("s", FakeSource([], fail=OSError("backend down")))])
        with pytest.raises(OSError, match="backend down"):
            reader.read_chunk(fp(1))
        reader = ChunkReader([("s", {})])
        with pytest.raises(KeyError, match="all 1 sources"):
            reader.read_chunk(fp(1))

    def test_other_exceptions_propagate(self):
        reader = ChunkReader([
            ("rotten", FakeSource([], fail=ValueError("not a miss"))),
            ("fine", FakeSource([1])),
        ])
        with pytest.raises(ValueError):
            reader.read_chunk(fp(1))

    def test_last_source_and_failover_labels(self):
        registry = MetricsRegistry()
        reader = ChunkReader(
            [("a", FakeSource([1])), ("b", FakeSource([2])), ("c", FakeSource([3]))],
            registry=registry,
        )
        assert reader.last_source is None
        for i, name in ((1, "a"), (3, "c"), (2, "b"), (3, "c")):
            assert reader.read_chunk(fp(i)) == payload(i)
            assert reader.last_source == name
        assert registry.value("repl.failovers", missed="a", served="b") == 1
        assert registry.value("repl.failovers", missed="a", served="c") == 2
        assert registry.total("repl.failovers") == 3

    def test_miss_keeps_the_plan(self):
        plan = [fp(i) for i in range(PLAN_WINDOW)]
        first = FakeSource([])
        second = FakeSource(range(PLAN_WINDOW))
        reader = ChunkReader([("first", first), ("second", second)], plan)
        for p in plan:
            reader.read_chunk(p)
        assert len(first.calls) == len(second.calls) == 1

    def test_mapping_and_read_chunk_sources(self):
        class Store:
            def read_chunk(self, want):
                if want != fp(2):
                    raise KeyError(want)
                return payload(2)

        reader = ChunkReader([("map", {fp(1): payload(1)}), ("store", Store())])
        assert reader.read_chunk(fp(1)) == payload(1)
        assert reader.read_chunk(fp(2)) == payload(2)
        assert reader.last_source == "store"

    def test_needs_a_source(self):
        with pytest.raises(ValueError):
            ChunkReader([])


class FakeNet:
    """``NetClient.call`` for CHUNK_READ over a dict: all-or-nothing per
    batch, as a daemon answers."""

    host, port = "fake", 0

    def __init__(self, held):
        self.chunks = {fp(i): payload(i) for i in held}
        self.batches = []
        self.closed = 0

    def call(self, msg_type, body=b""):
        assert msg_type == m.CHUNK_READ
        fps, _ = m.decode_fps(body)
        self.batches.append(len(fps))
        missing = [p for p in fps if p not in self.chunks]
        if missing:
            raise RemoteError("KeyError", f"fingerprint {missing[0].hex()[:12]}")
        return m.encode_chunk_batch([(p, self.chunks[p]) for p in fps])

    def close(self):
        self.closed += 1


class TestWireSource:
    def test_planned_restore_costs_one_rpc_per_batch(self):
        n = 2 * READ_BATCH + 7
        net = FakeNet(range(n))
        reader = ChunkReader([("w", WireSource(net))], [fp(i) for i in range(n)])
        for i in range(n):
            assert reader.read_chunk(fp(i)) == payload(i)
        assert net.batches == [READ_BATCH, READ_BATCH, 7]

    def test_refused_batch_is_retried_for_the_one_fingerprint(self):
        # The peer holds a prefix of the window only (the rest sits on
        # another replica): it serves what it can instead of failing the
        # read, and asks for less next time.
        net = FakeNet(range(10))
        source = WireSource(net)
        window = [fp(i) for i in range(READ_BATCH)]
        assert source.fetch(fp(0), window) == {fp(0): payload(0)}
        assert net.batches == [READ_BATCH, 1]
        source.fetch(fp(1), window[1:])
        assert net.batches[2] == READ_BATCH // 2

    def test_batch_grows_back_after_full_answers(self):
        net = FakeNet(range(4 * READ_BATCH))
        source = WireSource(net)
        source.fetch(fp(0), [fp(0), fp(10**6)])  # refused: batch -> 1
        for i in range(1, 4 * READ_BATCH):
            source.fetch(fp(i), [fp(j) for j in range(i, 4 * READ_BATCH)][:READ_BATCH])
        assert max(net.batches) == READ_BATCH
        assert net.batches[2:9] == [1, 2, 4, 8, 16, 32, 64]

    def test_missing_fingerprint_raises_the_remote_error(self):
        source = WireSource(FakeNet([]))
        with pytest.raises(RemoteError):
            source.fetch(fp(1), [fp(1), fp(2)])
        with pytest.raises(RemoteError):
            source.fetch(fp(1), [fp(1)])

    def test_close_closes_lazily_dialled_clients_only(self):
        borrowed, dialled = FakeNet([1]), FakeNet([2])
        reader = ChunkReader([
            ("borrowed", WireSource(borrowed)),
            ("dialled", WireSource(dialled, owns_net=True)),
        ])
        reader.close()
        assert (borrowed.closed, dialled.closed) == (0, 1)

    def test_dial_opens_no_socket_until_the_first_fetch(self):
        source = WireSource.dial("127.0.0.1", 1, "b")  # nothing listens there
        assert source._net._sock is None
        assert source._net.client_name == "failover:b"
        source.close()
