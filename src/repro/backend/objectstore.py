"""An S3-style object-store backend with ranged reads and fault injection.

The "bucket" is a directory (objects persist across processes, which is
what lets separate CLI invocations — migrate, then restore, then scrub —
share one cold tier), but every access goes through a *request* model:

* each verb is one request; ``get_ranges`` answers any number of byte
  ranges in a single request (the multi-range GET that makes adjacent-GET
  batching pay);
* a :class:`RequestProfile` charges simulated seconds per request
  (first-byte latency + bytes/throughput + a small per-extra-range cost),
  accumulated in :attr:`ObjectStoreBackend.simulated_seconds` and mirrored
  to the ``storage.simulated_seconds`` counter — benchmarks read it to
  model cold-restore cost without sleeping;
* :class:`BackendFaultRule` injects **throttling** (503 SlowDown) and
  **transient 5xx errors** per operation.  The backend retries both with
  exponential backoff + deterministic jitter; when the budget runs out it
  raises :class:`~repro.backend.base.RetryExhaustedError`.

Fault rules load from ``_faults.json`` in the bucket root when present,
so cross-process drills (CI) inject faults by dropping a file::

    {"rules": [{"op": "get_ranges", "kind": "throttle", "every": 4},
               {"op": "get_range", "kind": "transient", "times": 2}]}

Keys starting with ``_`` are reserved for such control files and never
listed as objects.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.backend.base import (
    BackendTelemetry,
    ObjectMissingError,
    ObjectStat,
    RetryExhaustedError,
    StorageBackend,
    ThrottledError,
    TransientBackendError,
)
from repro.durability.fsshim import atomic_write
from repro.telemetry.registry import MetricsRegistry, get_registry

PathLike = Union[str, Path]

#: Control file the backend reads fault rules from (bucket root).
FAULTS_FILE = "_faults.json"


@dataclass
class RequestProfile:
    """Simulated cost model of one object-store request.

    Defaults approximate a same-region S3 GET: ~30 ms to first byte,
    ~100 MB/s streaming, ~2 ms per additional range of a multi-range GET.
    """

    base_latency_s: float = 0.030
    throughput_bps: float = 100e6
    range_overhead_s: float = 0.002

    def charge(self, n_ranges: int, payload_bytes: int) -> float:
        extra = max(0, n_ranges - 1) * self.range_overhead_s
        transfer = payload_bytes / self.throughput_bps if self.throughput_bps else 0.0
        return self.base_latency_s + extra + transfer

    def to_json(self) -> dict:
        return {
            "base_latency_s": self.base_latency_s,
            "throughput_bps": self.throughput_bps,
            "range_overhead_s": self.range_overhead_s,
        }

    @classmethod
    def from_json(cls, doc: Optional[dict]) -> "RequestProfile":
        doc = doc or {}
        return cls(
            base_latency_s=float(doc.get("base_latency_s", cls.base_latency_s)),
            throughput_bps=float(doc.get("throughput_bps", cls.throughput_bps)),
            range_overhead_s=float(doc.get("range_overhead_s", cls.range_overhead_s)),
        )


@dataclass
class BackendFaultRule:
    """One injected request fault (mirrors the fsshim's FaultRule idiom).

    ``op`` is a verb name or ``"*"``.  ``kind`` is ``"throttle"`` (503)
    or ``"transient"`` (500).  The rule skips its first ``after`` matching
    requests, then fires ``times`` times (``None`` = forever); with
    ``every`` set it instead fires on every Nth matching request — the
    steady-state throttling shape.
    """

    op: str
    kind: str
    after: int = 0
    times: Optional[int] = 1
    every: Optional[int] = None
    fired: int = field(default=0, init=False)
    _seen: int = field(default=0, init=False)

    def matches(self, op: str) -> bool:
        if self.op not in ("*", op):
            return False
        self._seen += 1
        if self._seen <= self.after:
            return False
        if self.every is not None:
            if (self._seen - self.after) % self.every != 0:
                return False
        elif self.times is not None and self.fired >= self.times:
            return False
        self.fired += 1
        return True

    @classmethod
    def from_json(cls, doc: dict) -> "BackendFaultRule":
        return cls(
            op=str(doc.get("op", "*")),
            kind=str(doc.get("kind", "transient")),
            after=int(doc.get("after", 0)),
            times=(None if doc.get("times") is None else int(doc["times"])),
            every=(None if doc.get("every") is None else int(doc["every"])),
        )


class ObjectStoreBackend(StorageBackend):
    """Directory-backed S3-style store with a request model and retries."""

    name = "object"

    def __init__(
        self,
        root: PathLike,
        profile: Optional[RequestProfile] = None,
        faults: Optional[List[BackendFaultRule]] = None,
        registry: Optional[MetricsRegistry] = None,
        attempts: int = 4,
        backoff_base_s: float = 0.01,
        backoff_max_s: float = 0.5,
        sleep: Callable[[float], None] = time.sleep,
        create: bool = True,
    ) -> None:
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        self.profile = profile if profile is not None else RequestProfile()
        self.faults: List[BackendFaultRule] = list(faults or [])
        self.faults.extend(self._load_fault_file())
        self.attempts = max(1, attempts)
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.sleep = sleep
        registry = registry if registry is not None else get_registry()
        self.telemetry = BackendTelemetry(self.name, registry)
        self._t_sim = registry.counter(
            "storage.simulated_seconds",
            "simulated request seconds charged by the object-store model",
        ).labels(backend=self.name)
        #: Requests that reached the (simulated) service, including the
        #: ones a fault then failed — the per-request accounting benchmarks
        #: read.  Retries count: every attempt is a billable request.
        self.requests_issued = 0
        self.simulated_seconds = 0.0

    # -- bucket plumbing ------------------------------------------------------
    def _load_fault_file(self) -> List[BackendFaultRule]:
        path = self.root / FAULTS_FILE
        if not path.exists():
            return []
        try:
            doc = json.loads(path.read_text())
        except (ValueError, OSError):
            return []
        return [BackendFaultRule.from_json(r) for r in doc.get("rules", [])]

    def _path(self, key: str) -> Path:
        if not key or key.startswith(("/", "\\", "_")) or ".." in key.split("/"):
            raise ValueError(f"unsafe object key {key!r}")
        return self.root / key

    # -- the request engine ---------------------------------------------------
    def _inject(self, op: str) -> None:
        for rule in self.faults:
            if rule.kind == "throttle" and rule.matches(op):
                self.telemetry.throttled.inc()
                raise ThrottledError(f"{op}: throttled (503 SlowDown)")
            if rule.kind == "transient" and rule.matches(op):
                raise TransientBackendError(f"{op}: transient backend error (500)")

    def _request(self, op: str, fn: Callable[[], object], n_ranges: int = 1):
        """Run one logical request under the retry policy.

        Each attempt is accounted as a request (base latency charged even
        for failed attempts — the wire round trip happened); payload
        transfer is charged by the caller on success via :meth:`_charge`.
        """
        delay = self.backoff_base_s
        last: Optional[Exception] = None
        for attempt in range(self.attempts):
            self.telemetry.request(op)
            self.requests_issued += 1
            self._account(self.profile.charge(n_ranges, 0))
            try:
                self._inject(op)
                return fn()
            except TransientBackendError as exc:
                last = exc
                if attempt == self.attempts - 1:
                    break
                self.telemetry.retries.inc()
                # Deterministic jitter: spread retries without a PRNG.
                self.sleep(min(delay * (1.0 + 0.1 * attempt), self.backoff_max_s))
                delay *= 2
        self.telemetry.errors.inc()
        raise RetryExhaustedError(
            f"{op}: {self.attempts} attempts exhausted: {last}"
        ) from last

    def _account(self, seconds: float) -> None:
        self.simulated_seconds += seconds
        self._t_sim.inc(seconds)

    def _charge_payload(self, nbytes: int) -> None:
        # Transfer time beyond the per-request base already charged.
        base = self.profile.base_latency_s
        self._account(self.profile.charge(1, nbytes) - base)

    # -- the verbs ------------------------------------------------------------
    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)

        def do() -> None:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, data)

        self._request("put", do)
        self._charge_payload(len(data))
        self.telemetry.bytes_stored.inc(len(data))

    def _read_all(self, key: str) -> bytes:
        path = self._path(key)
        if not path.exists():
            raise ObjectMissingError(f"no object {key!r} in bucket {self.root}")
        return path.read_bytes()

    def get(self, key: str) -> bytes:
        data = self._request("get", lambda: self._read_all(key))
        self._charge_payload(len(data))
        self.telemetry.single_gets.inc()
        self.telemetry.bytes_fetched.inc(len(data))
        return data

    def _read_range(self, key: str, offset: int, length: int) -> bytes:
        path = self._path(key)
        if not path.exists():
            raise ObjectMissingError(f"no object {key!r} in bucket {self.root}")
        with open(path, "rb") as fh:
            fh.seek(offset)
            return fh.read(length)

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        data = self._request(
            "get_range", lambda: self._read_range(key, offset, length)
        )
        self._charge_payload(len(data))
        self.telemetry.single_gets.inc()
        self.telemetry.bytes_fetched.inc(len(data))
        return data

    def get_ranges(
        self, key: str, ranges: Sequence[Tuple[int, int]]
    ) -> List[bytes]:
        """All ranges in **one** request (the batch call)."""
        if not ranges:
            return []

        def do() -> List[bytes]:
            return [self._read_range(key, off, ln) for off, ln in ranges]

        out = self._request("get_ranges", do, n_ranges=len(ranges))
        total = sum(len(d) for d in out)
        self._charge_payload(total)
        self._account(max(0, len(ranges) - 1) * self.profile.range_overhead_s)
        self.telemetry.batched_gets.inc()
        self.telemetry.bytes_fetched.inc(total)
        return out

    def delete(self, key: str) -> None:
        path = self._path(key)

        def do() -> None:
            if not path.exists():
                raise ObjectMissingError(
                    f"no object {key!r} in bucket {self.root}"
                )
            path.unlink()

        self._request("delete", do)

    def list_keys(self, prefix: str = "") -> List[str]:
        def do() -> List[str]:
            if not self.root.is_dir():
                return []
            keys = [
                str(p.relative_to(self.root))
                for p in self.root.rglob("*")
                if p.is_file()
                and not p.name.endswith(".tmp")
                and not str(p.relative_to(self.root)).startswith("_")
            ]
            return sorted(k for k in keys if k.startswith(prefix))

        return self._request("list", do)

    def stat(self, key: str) -> ObjectStat:
        path = self._path(key)

        def do() -> ObjectStat:
            if not path.exists():
                raise ObjectMissingError(
                    f"no object {key!r} in bucket {self.root}"
                )
            return ObjectStat(key, path.stat().st_size)

        return self._request("stat", do)
