"""The smart routed client: cache the ring, talk to nodes directly
(DESIGN.md §14.3).

Redirect mode inverts the proxy: the client pays one ``ROUTE_LOOKUP``
to learn the ring inputs and address book, rebuilds the
:class:`PlacementRing` locally (the ring is deterministic from its
inputs — that is the whole redirect contract), and then opens direct
connections to the owning nodes, so bulk bytes never traverse the
router.  Staleness is handled by epoch: ``ROUTE_HINT`` is a tiny
request that answers "has membership changed since epoch E?", and any
topology-looking failure (the primary refusing connections) is reason
to re-lookup before retrying.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net import messages as m
from repro.net.client import NetClient, RemoteBackupClient, RetryPolicy
from repro.replication.ring import PlacementRing
from repro.telemetry.registry import MetricsRegistry


class RouterClient:
    """A thin control-plane client for ``repro route``."""

    def __init__(
        self,
        host: str,
        port: int,
        retry: Optional[RetryPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
        client_name: str = "routed",
    ) -> None:
        self.net = NetClient(
            host, port, client_name=client_name, retry=retry, registry=registry
        )
        self.client_name = client_name
        self.retry = retry
        self.registry = registry
        self.epoch: Optional[int] = None
        self.ring: Optional[PlacementRing] = None
        self.nodes: Dict[str, dict] = {}
        self._last_error: Optional[Exception] = None

    def close(self) -> None:
        self.net.close()

    def __enter__(self) -> "RouterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the cached ring ----------------------------------------------------------
    def lookup(self) -> dict:
        """Fetch and cache the ring inputs + address book."""
        doc = self.net.call_json(m.ROUTE_LOOKUP, {})
        self.epoch = int(doc["epoch"])
        self.ring = PlacementRing.from_doc(doc["ring"])
        self.nodes = dict(doc["nodes"])
        return doc

    def ensure_ring(self) -> PlacementRing:
        if self.ring is None:
            self.lookup()
        return self.ring

    def refresh_if_stale(self) -> bool:
        """One cheap ``ROUTE_HINT`` round trip; re-lookup on staleness.
        Returns True when the cached ring had to be replaced."""
        if self.epoch is None:
            self.lookup()
            return True
        hint = self.net.call_json(m.ROUTE_HINT, {"epoch": self.epoch})
        if hint.get("stale"):
            self.lookup()
            return True
        return False

    # -- placement ----------------------------------------------------------------
    def live_order_for_job(self, job: str) -> List[str]:
        """Every live node in ring order for the job key (the head is the
        primary; the tail is the failover order)."""
        ring = self.ensure_ring()
        live = {
            n for n, info in self.nodes.items() if info.get("state") == "up"
        }
        return [
            name
            for name in ring.replicas(f"job:{job}", rf=len(ring.nodes))
            if name in live
        ]

    def address_of(self, node: str) -> Tuple[str, int]:
        info = self.nodes.get(node)
        if info is None:
            raise KeyError(f"unknown node {node!r}")
        host, _, port = str(info["address"]).rpartition(":")
        return host or "127.0.0.1", int(port)

    # -- direct node clients ------------------------------------------------------
    def _direct(self, node: str, **kwargs) -> RemoteBackupClient:
        """A direct client to ``node`` — this client's name, retry policy
        and registry unless the caller overrides them."""
        host, port = self.address_of(node)
        kwargs.setdefault("client_name", self.client_name)
        kwargs.setdefault("retry", self.retry)
        kwargs.setdefault("registry", self.registry)
        return RemoteBackupClient(host, port, **kwargs)

    def _live_nodes(self) -> List[str]:
        return [
            n for n in sorted(self.nodes) if self.nodes[n].get("state") == "up"
        ]

    def _ask(self, nodes: List[str], ask, kwargs: dict):
        """Ask each node in turn over its own direct connection: yield
        ``(node, ask(client))`` for every node that answered.  A node that
        cannot be reached (or refuses) is passed over; the last such
        failure is kept in ``_last_error`` for the caller's message."""
        self._last_error = None
        for node in nodes:
            try:
                with self._direct(node, **kwargs) as client:
                    yield node, ask(client)
            except Exception as exc:
                self._last_error = exc

    def client_for_job(self, job: str, **kwargs) -> RemoteBackupClient:
        """A direct :class:`RemoteBackupClient` to the job's primary."""
        order = self.live_order_for_job(job)
        if not order:
            raise ConnectionError(f"no live node to own job {job!r}")
        return self._direct(order[0], **kwargs)

    def client_for_run(
        self, run_id: int, job: Optional[str] = None, **kwargs
    ) -> RemoteBackupClient:
        """A direct client to the live node that records ``run_id``.

        Run ids are per-vault — every node numbers its own runs from 1 —
        so the locator matches on (job, run id), asking each candidate
        node (small ``RUNS`` requests) rather than guessing from the
        ring.  With ``job`` the search walks the job's ring order (owner
        first); without one every live node is asked, and a run id
        recorded under two different jobs raises instead of connecting
        to whichever vault sorts first.  When the owner is dead the
        router's proxy path (mirrored catalogs) is the fallback.
        """
        self.ensure_ring()
        order = self.live_order_for_job(job) if job else self._live_nodes()
        owners: Dict[str, str] = {}  # job -> first node recording the run
        for node, runs in self._ask(order, lambda c: c.runs(job=job), kwargs):
            for r in runs:
                if r.run_id == run_id:
                    owners.setdefault(r.job, node)
            if owners and job:
                break  # job-qualified: the first ring match wins
        if len(owners) > 1:
            raise KeyError(
                f"run {run_id} is recorded by jobs {sorted(owners)}; "
                "qualify the lookup with a job"
            )
        if owners:
            return self._direct(next(iter(owners.values())), **kwargs)
        scope = f" for job {job!r}" if job else ""
        raise KeyError(
            f"no live node records run {run_id}{scope}" + self._last_error_note()
        )

    def _last_error_note(self) -> str:
        return f" (last error: {self._last_error})" if self._last_error else ""

    def locate_archive_point(
        self,
        run_id: int,
        job: Optional[str] = None,
        origin: Optional[str] = None,
        **kwargs,
    ) -> Tuple[RemoteBackupClient, str, str]:
        """A direct client to the live node whose archive retains restore
        point ``run_id``, plus the (origin, job) naming its chain.

        The sweep mirrors :meth:`client_for_run` but asks each node's
        ``ARCHIVE_STATUS`` instead of its catalog, so it still resolves
        after the origin vault (and its catalog) is destroyed — the whole
        point of a point-in-time archive restore.  A run id retained by
        two different chains raises instead of picking one.
        """
        self.ensure_ring()
        hits: Dict[Tuple[str, str], str] = {}  # (origin, job) -> node
        for node, status in self._ask(
            self._live_nodes(), RemoteBackupClient.archive_status, kwargs
        ):
            for o, jobs in (status.get("origins") or {}).items():
                if origin and o != origin:
                    continue
                for j, chain in jobs.items():
                    if job and j != job:
                        continue
                    if run_id in chain.get("points", []):
                        hits.setdefault((o, j), node)
        if len(hits) > 1:
            names = sorted(f"{o}/{j}" for o, j in hits)
            raise KeyError(
                f"run {run_id} is retained by archived chains {names}; "
                "qualify the lookup with a job"
            )
        if hits:
            (o, j), node = next(iter(hits.items()))
            return self._direct(node, **kwargs), o, j
        scope = f" for job {job!r}" if job else ""
        raise KeyError(
            f"no archived chain retains run {run_id}{scope}"
            + self._last_error_note()
        )

    # -- cluster admin ------------------------------------------------------------
    def cluster_status(self) -> dict:
        return self.net.call_json(m.CLUSTER_STATUS, {})

    def rebalance_plan(self) -> dict:
        return self.net.call_json(m.REBALANCE_PLAN, {})

    def rebalance_ack(self, step_id: str) -> None:
        self.net.call_json(m.REBALANCE_ACK, {"id": step_id})
