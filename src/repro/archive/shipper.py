"""The asynchronous archive shipper: per-run deltas → archive peers.

One :class:`ArchiveShipper` rides beside a
:class:`~repro.system.vault.DebarVault` (the ``repro serve --archive-to``
wiring).  The mechanism — per-peer workers, in-flight window,
backpressure, backoff, persisted acks — is the shared
:class:`~repro.net.shipper.AsyncShipper`; this is its delta *policy*:

* **owed**: per job, every catalogued run above the peer's acked floor
  (``<vault>/archive.json``), **in run order** — deltas, unlike
  containers, are order-dependent (each applies against the archive's
  current tip), which the engine's one FIFO per peer with requeue at the
  head preserves;
* **shipped** as a delta cut lazily at ship time (catalog recipe diff +
  chunk-store reads) against that floor, so the inline cost of shipping
  is enqueueing a couple of tuples — ~0%.  Pushes are idempotent end to
  end: the wire layer retries under the server's response cache, and the
  archive treats a re-push of an applied run (``run_id <= tip``) as a
  no-op ack — which makes a restart after a crash-before-ack safe, and is
  why run ids must be monotonic (DESIGN.md §15.2).

Telemetry: ``archive.deltas_cut``, ``archive.deltas_shipped``,
``archive.bytes_shipped``, ``archive.push_errors``,
``archive.queue_depth``, ``archive.lag`` (DESIGN.md §15.4).
"""

from __future__ import annotations

import functools
from typing import Dict, Iterator, Optional, Tuple

from repro.archive.delta import cut_delta, pack_delta
from repro.net import messages as m
from repro.net.client import NetClient, RetryPolicy
from repro.net.shipper import AsyncShipper
from repro.net.shipper import peers_from_state as _peers_from_state
from repro.telemetry.registry import MetricsRegistry

#: One shipment task: (job, run_id).
Task = Tuple[str, int]


class ArchiveShipper(AsyncShipper):
    """Ships a vault's per-run deltas to its archive peers, in run order."""

    STATE_FILE = "archive.json"
    PREFIX = "archive"
    WINDOW = 2

    def __init__(
        self,
        vault,
        node_name: str,
        peers: Dict[str, Tuple[str, int]],
        registry: Optional[MetricsRegistry] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if not peers:
            raise ValueError("an archive shipper needs at least one peer")
        super().__init__(vault, node_name, peers, registry, retry)
        #: Crash-point announcer (repro.audit.faults); None in production.
        self.fault_hook = None
        self._t_cut = self.registry.counter(
            "archive.deltas_cut", "per-run delta objects cut from the catalog"
        ).labels()
        self._t_shipped = self.registry.counter(
            "archive.deltas_shipped", "delta objects acked by an archive peer"
        )
        self._t_bytes = self.registry.counter(
            "archive.bytes_shipped", "delta bytes acked by an archive peer"
        )

    # -- ack state: job -> last run id the archive acked ----------------------------
    def _load_acked(self, doc) -> Dict[str, int]:
        if not isinstance(doc, dict):
            return {}
        return {str(job): int(run_id) for job, run_id in doc.items()}

    def _dump_acked(self, acked: Dict[str, int]) -> Dict[str, int]:
        return dict(acked)

    def _fold_ack(self, acked: Dict[str, int], task: Task) -> None:
        job, run_id = task
        acked[job] = max(acked.get(job, 0), run_id)

    # -- what is owed, and how it ships ---------------------------------------------
    def _owed(self) -> Iterator[Tuple[str, Task]]:
        chains: Dict[str, list] = {}
        for run in self.vault.runs():
            chains.setdefault(run.job, []).append(run.run_id)
        for job, run_ids in chains.items():
            run_ids.sort()
            for peer, acked in self._acked.items():
                floor = acked.get(job, 0)
                for run_id in run_ids:
                    if run_id > floor:
                        yield peer, (job, run_id)

    def _push(self, client: NetClient, peer: str, task: Task) -> None:
        from repro.audit.faults import ARCHIVE_SHIP_PREACK

        job, run_id = task
        floor = self._acked[peer].get(job, 0)
        if run_id <= floor:
            return  # a duplicate task raced an already-advanced ack
        run = next((r for r in self.vault.runs(job) if r.run_id == run_id), None)
        if run is None:
            # Committed then forgotten before shipping: nothing owed, and
            # no ack — the floor must NOT advance past a run the archive
            # never saw, so the next surviving run diffs against the
            # still-acked floor and the chain stays contiguous.
            return
        # The base is this peer's acked tip — the archive's FIFO contract.
        # cut_delta falls back to a full delta when that recipe is gone.
        delta = cut_delta(
            self.vault, run, base_run_id=floor, origin=self.node_name
        )
        blob = pack_delta(delta)
        self._t_cut.inc()
        envelope = {
            "origin": self.node_name,
            "job": job,
            "run_id": run_id,
            "base_run_id": delta.base_run_id,
            "full": delta.full,
            "bytes": len(blob),
        }
        client.call(m.DELTA_PUSH, m.encode_container_image(envelope, blob))
        if self.fault_hook is not None:
            self.fault_hook(ARCHIVE_SHIP_PREACK)
        self._t_shipped.labels(peer=peer).inc()
        self._t_bytes.labels(peer=peer).inc(len(blob))
        self._ack(peer, task)


#: The archive peers a vault last shipped to (``archive.json``).
peers_from_state = functools.partial(_peers_from_state, state_file=ArchiveShipper.STATE_FILE)
