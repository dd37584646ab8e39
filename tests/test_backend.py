"""Tests for the storage-backend abstraction: the simulated
object store (request model, batching, retry/backoff, fault injection,
the cross-process _faults.json control file), and the metadata cache."""

import json

import pytest

from repro.backend.base import (
    ObjectMissingError,
    RetryExhaustedError,
    StorageBackend,
    ThrottledError,
    TransientBackendError,
)
from repro.backend.cache import LruMetaCache
from repro.backend.objectstore import (
    FAULTS_FILE,
    BackendFaultRule,
    ObjectStoreBackend,
    RequestProfile,
)
from repro.telemetry.registry import MetricsRegistry


def make_object_store(tmp_path, **kw):
    kw.setdefault("sleep", lambda s: None)
    kw.setdefault("registry", MetricsRegistry())
    return ObjectStoreBackend(tmp_path / "bucket", **kw)


class TestErrorTaxonomy:
    def test_missing_is_keyerror_compatible(self):
        # Repository code catches KeyError for "container not stored";
        # any backend's miss must keep satisfying that contract.
        assert issubclass(ObjectMissingError, KeyError)

    def test_throttle_is_transient(self):
        assert issubclass(ThrottledError, TransientBackendError)

    def test_retry_exhausted_is_oserror(self):
        # Failover readers and the CLI treat a dead backend as an I/O
        # failure; RetryExhaustedError must flow through those paths.
        assert issubclass(RetryExhaustedError, OSError)
        assert not issubclass(RetryExhaustedError, TransientBackendError)

    def test_missing_str_readable(self):
        err = ObjectMissingError("no object 'k'")
        assert str(err) == "no object 'k'"  # not KeyError's quoted repr


class TestBackendContract:
    """Every implementation answers the same six verbs identically."""

    @pytest.fixture(params=["object"])
    def backend(self, tmp_path):
        return make_object_store(tmp_path)

    def test_put_get_roundtrip(self, backend):
        backend.put("a/b.bin", b"payload")
        assert backend.get("a/b.bin") == b"payload"

    def test_get_range(self, backend):
        backend.put("k", b"0123456789")
        assert backend.get_range("k", 3, 4) == b"3456"

    def test_get_ranges(self, backend):
        backend.put("k", b"0123456789")
        assert backend.get_ranges("k", [(0, 2), (8, 2)]) == [b"01", b"89"]
        assert backend.get_ranges("k", []) == []

    def test_missing_object(self, backend):
        with pytest.raises(ObjectMissingError):
            backend.get("nope")
        with pytest.raises(ObjectMissingError):
            backend.get_range("nope", 0, 1)
        with pytest.raises(ObjectMissingError):
            backend.delete("nope")
        with pytest.raises(ObjectMissingError):
            backend.stat("nope")

    def test_delete(self, backend):
        backend.put("k", b"x")
        backend.delete("k")
        assert not backend.exists("k")

    def test_list_keys_sorted_with_prefix(self, backend):
        for key in ("b.ctr", "a.ctr", "sub/c.ctr"):
            backend.put(key, b"x")
        assert backend.list_keys() == ["a.ctr", "b.ctr", "sub/c.ctr"]
        assert backend.list_keys(prefix="sub/") == ["sub/c.ctr"]

    def test_stat(self, backend):
        backend.put("k", b"12345")
        st = backend.stat("k")
        assert st.key == "k" and st.size == 5

    def test_overwrite_is_idempotent_put(self, backend):
        backend.put("k", b"old")
        backend.put("k", b"new")
        assert backend.get("k") == b"new"

    def test_unsafe_keys_rejected(self, backend):
        for key in ("", "/abs", "../escape", "a/../b"):
            with pytest.raises(ValueError):
                backend.put(key, b"x")

    def test_default_get_ranges_loops(self, tmp_path):
        class Minimal(StorageBackend):
            def get_range(self, key, offset, length):
                return b"0123456789"[offset : offset + length]

        assert Minimal().get_ranges("k", [(1, 2), (5, 3)]) == [b"12", b"567"]


class TestRequestModel:
    def test_each_verb_is_one_request(self, tmp_path):
        be = make_object_store(tmp_path)
        be.put("k", b"x" * 100)
        be.get("k")
        be.get_range("k", 0, 10)
        be.stat("k")
        assert be.requests_issued == 4

    def test_get_ranges_is_one_request(self, tmp_path):
        be = make_object_store(tmp_path)
        be.put("k", b"x" * 1000)
        before = be.requests_issued
        be.get_ranges("k", [(0, 10), (100, 10), (900, 10)])
        assert be.requests_issued == before + 1

    def test_simulated_seconds_accumulate(self, tmp_path):
        profile = RequestProfile(
            base_latency_s=0.030, throughput_bps=1e6, range_overhead_s=0.002
        )
        be = make_object_store(tmp_path, profile=profile)
        be.put("k", b"x" * 500_000)
        base = be.simulated_seconds
        # put: 30ms latency + 0.5s transfer
        assert base == pytest.approx(0.030 + 0.5)
        be.get_range("k", 0, 100_000)
        assert be.simulated_seconds - base == pytest.approx(0.030 + 0.1)

    def test_batched_ranges_cheaper_than_single_gets(self, tmp_path):
        a = make_object_store(tmp_path / "a", profile=RequestProfile())
        b = make_object_store(tmp_path / "b", profile=RequestProfile())
        a.put("k", b"x" * 10_000)
        b.put("k", b"x" * 10_000)
        ranges = [(i * 1000, 500) for i in range(8)]
        sa, sb = a.simulated_seconds, b.simulated_seconds
        a.get_ranges("k", ranges)
        for off, ln in ranges:
            b.get_range("k", off, ln)
        assert (a.simulated_seconds - sa) < (b.simulated_seconds - sb)
        assert a.requests_issued == b.requests_issued - len(ranges) + 1

    def test_telemetry_counters(self, tmp_path):
        registry = MetricsRegistry()
        be = make_object_store(tmp_path, registry=registry)
        be.put("k", b"x" * 64)
        be.get("k")
        be.get_ranges("k", [(0, 8), (32, 8)])
        assert registry.value("storage.requests", backend="object", op="put") == 1
        assert registry.value("storage.requests", backend="object", op="get") == 1
        assert (
            registry.value("storage.requests", backend="object", op="get_ranges")
            == 1
        )
        assert registry.value("storage.batched_gets", backend="object") == 1
        assert registry.value("storage.single_gets", backend="object") == 1
        assert registry.value("storage.bytes_stored", backend="object") == 64
        assert registry.value("storage.bytes_fetched", backend="object") == 64 + 16

    def test_torn_put_never_listed(self, tmp_path):
        be = make_object_store(tmp_path)
        be.put("k.ctr", b"x")
        (be.root / "torn.ctr.tmp").write_bytes(b"partial")
        assert be.list_keys() == ["k.ctr"]


class TestFaultInjection:
    def test_transient_fault_retried(self, tmp_path):
        registry = MetricsRegistry()
        be = make_object_store(
            tmp_path, registry=registry,
            faults=[BackendFaultRule(op="get", kind="transient", times=2)],
        )
        be.put("k", b"data")
        assert be.get("k") == b"data"  # two failures absorbed
        assert registry.value("storage.retries", backend="object") == 2

    def test_throttle_retried_and_counted(self, tmp_path):
        registry = MetricsRegistry()
        be = make_object_store(
            tmp_path, registry=registry,
            faults=[BackendFaultRule(op="get_ranges", kind="throttle", times=1)],
        )
        be.put("k", b"0123456789")
        assert be.get_ranges("k", [(0, 2), (5, 2)]) == [b"01", b"56"]
        assert registry.value("storage.throttled", backend="object") == 1

    def test_retry_exhaustion(self, tmp_path):
        registry = MetricsRegistry()
        be = make_object_store(
            tmp_path, registry=registry, attempts=3,
            faults=[BackendFaultRule(op="get", kind="transient", times=None)],
        )
        be.put("k", b"data")
        with pytest.raises(RetryExhaustedError):
            be.get("k")
        assert registry.value("storage.errors", backend="object") == 1
        # Every attempt was a billable request.
        assert (
            registry.value("storage.requests", backend="object", op="get") == 3
        )

    def test_backoff_delays_grow(self, tmp_path):
        delays = []
        be = ObjectStoreBackend(
            tmp_path / "bucket", sleep=delays.append, attempts=4,
            registry=MetricsRegistry(),
            faults=[BackendFaultRule(op="get", kind="transient", times=None)],
        )
        be.put("k", b"x")
        with pytest.raises(RetryExhaustedError):
            be.get("k")
        assert len(delays) == 3
        assert delays[0] < delays[1] < delays[2]
        assert all(d <= be.backoff_max_s for d in delays)

    def test_every_nth_request_throttled(self, tmp_path):
        registry = MetricsRegistry()
        be = make_object_store(
            tmp_path, registry=registry,
            faults=[BackendFaultRule(op="get", kind="throttle", every=2, times=None)],
        )
        be.put("k", b"x")
        for _ in range(4):
            assert be.get("k") == b"x"  # every 2nd attempt sheds, retry covers
        assert registry.value("storage.throttled", backend="object") == 3
        assert be.requests_issued == 1 + 4 + 3  # put + gets + retried attempts

    def test_fault_after_skips_leading_requests(self, tmp_path):
        be = make_object_store(
            tmp_path, attempts=1,
            faults=[BackendFaultRule(op="get", kind="transient", after=2)],
        )
        be.put("k", b"x")
        assert be.get("k") == b"x"
        assert be.get("k") == b"x"
        with pytest.raises(RetryExhaustedError):
            be.get("k")  # third get fires the rule; attempts=1 exhausts

    def test_missing_object_is_not_retried(self, tmp_path):
        be = make_object_store(tmp_path)
        with pytest.raises(ObjectMissingError):
            be.get("nope")
        assert be.requests_issued == 1

    def test_faults_file_loaded_cross_process(self, tmp_path):
        bucket = tmp_path / "bucket"
        bucket.mkdir()
        (bucket / FAULTS_FILE).write_text(json.dumps({
            "rules": [{"op": "get", "kind": "transient", "times": 1}],
        }))
        registry = MetricsRegistry()
        be = ObjectStoreBackend(
            bucket, sleep=lambda s: None, registry=registry
        )
        be.put("k", b"x")
        assert be.get("k") == b"x"
        assert registry.value("storage.retries", backend="object") == 1

    def test_faults_file_never_listed_as_object(self, tmp_path):
        bucket = tmp_path / "bucket"
        bucket.mkdir()
        (bucket / FAULTS_FILE).write_text(json.dumps({"rules": []}))
        be = ObjectStoreBackend(bucket, registry=MetricsRegistry())
        be.put("k.ctr", b"x")
        assert be.list_keys() == ["k.ctr"]
        with pytest.raises(ValueError):
            be.get(FAULTS_FILE)  # reserved keyspace


class TestMetaCache:
    def test_lru_hit_and_miss(self):
        cache = LruMetaCache(capacity=4, registry=MetricsRegistry())
        assert cache.get(1) is None
        cache.put(1, "m1")
        assert cache.get(1) == "m1"
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_evicts_least_recent(self):
        cache = LruMetaCache(capacity=2, registry=MetricsRegistry())
        cache.put(1, "a")
        cache.put(2, "b")
        cache.get(1)       # 1 becomes most recent
        cache.put(3, "c")  # evicts 2
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_invalidate_and_clear(self):
        cache = LruMetaCache(capacity=4, registry=MetricsRegistry())
        cache.put(1, "a")
        cache.invalidate(1)
        assert cache.get(1) is None
        cache.put(2, "b")
        cache.clear()
        assert len(cache) == 0

    def test_telemetry(self):
        registry = MetricsRegistry()
        cache = LruMetaCache(capacity=2, registry=registry)
        cache.get(9)
        cache.put(9, "m")
        cache.get(9)
        assert registry.value("storage.meta_cache_hits") == 1
        assert registry.value("storage.meta_cache_misses") == 1

    def test_status(self):
        cache = LruMetaCache(capacity=3, registry=MetricsRegistry())
        cache.put(1, "a")
        status = cache.status()
        assert status["entries"] == 1 and status["capacity"] == 3

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LruMetaCache(capacity=0, registry=MetricsRegistry())
