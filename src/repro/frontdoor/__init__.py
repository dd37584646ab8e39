"""repro.frontdoor — the cluster front door (DESIGN.md §14).

DEBAR's scalability story (paper Sections 3 and 6) is a cluster of
backup servers behind a director; until now every client had to be
pointed at one ``repro serve`` daemon by hand.  This package turns N
standalone daemons into one addressable cluster:

- :mod:`repro.frontdoor.membership` — the node table: who belongs
  (join/leave advance the ring **epoch**), who currently answers
  (mark-down/mark-up are epoch-neutral health facts), persisted across
  router restarts.
- :mod:`repro.frontdoor.health` — PING sweeps with fast-failing
  connects; K consecutive failures mark a node down, one success marks
  it back up.
- :mod:`repro.frontdoor.router` — ``repro route``: an asyncio daemon on
  the same ``DBAR`` framing that *proxies* every client's frames (a
  client passes the router's address to ``--connect`` as if it were one
  ``repro serve`` node), pinning backup sessions to the ring's owner and
  failing reads over across the live replica set (down to
  per-fingerprint reassembly and mirrored-catalog synthesis when an
  origin is dead).
- :mod:`repro.frontdoor.rebalance` — the ring-diff move plan after a
  join/leave, executed over the existing ``CONTAINER_FETCH``/
  ``CONTAINER_PUSH`` verbs, persisted and acknowledged step by step so
  a crashed mover resumes idempotently.

Everything the router does is measured under ``router.*`` (DESIGN.md
§8.2): per-type request/proxy counters and latency histograms,
``router.node_up`` health gauges, mark-down and failover counters, the
ring epoch, and rebalance step states.
"""

from repro.frontdoor.health import HealthMonitor
from repro.frontdoor.membership import ClusterMembership, MembershipError
from repro.frontdoor.rebalance import (
    RebalancePlanner,
    build_plan,
    collect_inventories,
    execute_plan,
)
from repro.frontdoor.router import FrontDoorRouter, RouteError

__all__ = [
    "ClusterMembership",
    "FrontDoorRouter",
    "HealthMonitor",
    "MembershipError",
    "RebalancePlanner",
    "RouteError",
    "build_plan",
    "collect_inventories",
    "execute_plan",
]
