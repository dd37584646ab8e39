"""Rebalancing: turning a ring diff into an executed container move list
(DESIGN.md §14.4).

When membership changes, the new :class:`PlacementRing` assigns some
containers replica sets their copies are not on yet.  The *plan* is the
difference made explicit: one step per ``(origin, container_id, dst)``
that the ring wants covered and nobody holds.  Consistent hashing keeps
the plan small — a join moves ≈1/N of the keys, so ≈1/N of the
replicated containers gain one new home each.

The planner only needs what the cluster already reports: each live
node's ``REPL_STATUS`` carries its own sealed container ids (the
origin inventory) and its replica holdings (the coverage map).  Steps
execute over the *existing* replication verbs — ``CONTAINER_FETCH`` from
any current holder, ``CONTAINER_PUSH`` to the new home — so the mover
needs no new server support and inherits their content verification.

Resumability is layered twice: the router persists the plan (with
``done`` flags advanced by ``REBALANCE_ACK``) in
``<state>/rebalance.json``, so a crashed executor re-runs only the
remainder; and the pushes themselves are idempotent (a replica store
accepts a duplicate container as a no-op), so re-executing an
acknowledged-but-unrecorded step is harmless.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.durability.fsshim import atomic_write
from repro.net import messages as m
from repro.net.client import NetClient, RetryPolicy
from repro.replication.ring import PlacementRing

_PLAN_FILE = "rebalance.json"


def _parse_address(address: str) -> Tuple[str, int]:
    host, _, port = address.rpartition(":")
    return host or "127.0.0.1", int(port)


def collect_inventories(
    addresses: Dict[str, str], retry: Optional[RetryPolicy] = None
) -> Dict[str, dict]:
    """``REPL_STATUS`` from every reachable node; unreachable ones are
    simply absent (their containers cannot be planned from, and their
    replica holdings are invisible — the conservative direction: a copy
    we cannot see might be re-made, never skipped)."""
    out: Dict[str, dict] = {}
    for name in sorted(addresses):
        host, port = _parse_address(addresses[name])
        try:
            with NetClient(
                host, port, client_name="rebalance", retry=retry
            ) as net:
                out[name] = net.call_json(m.REPL_STATUS, {})
        except Exception:
            continue
    return out


def build_plan(
    ring: PlacementRing, inventories: Dict[str, dict], epoch: int
) -> dict:
    """The move list: every ``(origin, container, dst)`` the ring wants
    covered that no current holder covers.

    Steps are deterministic and sorted, so two planners over the same
    inputs emit the same plan (ids double as idempotency keys).
    """
    steps: List[dict] = []
    for origin in sorted(inventories):
        inventory = inventories[origin]
        own = [int(c) for c in inventory.get("containers", [])]
        for cid in sorted(own):
            desired = ring.replicas_for_container(origin, cid)
            holders = {origin}
            for peer in inventories:
                held = (
                    inventories[peer]
                    .get("replicas", {})
                    .get(origin, {})
                    .get("container_ids", [])
                )
                if cid in held:
                    holders.add(peer)
            for dst in desired:
                if dst in holders:
                    continue
                steps.append(
                    {
                        "id": f"{origin}:{cid}:{dst}",
                        "origin": origin,
                        "container_id": cid,
                        "dst": dst,
                        "sources": sorted(holders),
                        "done": False,
                    }
                )
    return {"epoch": epoch, "steps": steps}


class RebalancePlanner:
    """The router-side plan store: build, persist, acknowledge.

    A plan is pinned to the epoch it was built at; a later membership
    change invalidates the remainder (the moves may no longer be wanted)
    and the next ``REBALANCE_PLAN`` replans from live inventories.
    """

    def __init__(self, state_dir: Optional[Path] = None) -> None:
        if state_dir is not None:
            Path(state_dir).mkdir(parents=True, exist_ok=True)
            self._path = Path(state_dir) / _PLAN_FILE
        else:
            self._path = None
        self.plan: Optional[dict] = None
        if self._path is not None and self._path.exists():
            self.plan = json.loads(self._path.read_text())

    def _save(self) -> None:
        if self._path is None or self.plan is None:
            return
        atomic_write(
            self._path, json.dumps(self.plan, indent=1, sort_keys=True).encode()
        )

    def current(
        self, ring: PlacementRing, inventories: Dict[str, dict], epoch: int
    ) -> dict:
        """The pending plan for ``epoch`` — reused while steps remain, so
        a crashed executor resumes instead of replanning from scratch."""
        if (
            self.plan is not None
            and self.plan.get("epoch") == epoch
            and any(not s["done"] for s in self.plan["steps"])
        ):
            return self.plan
        self.plan = build_plan(ring, inventories, epoch)
        self._save()
        return self.plan

    def ack(self, step_id: str) -> bool:
        """Mark one step done (idempotent); returns False for unknown ids."""
        if self.plan is None:
            return False
        for step in self.plan["steps"]:
            if step["id"] == step_id:
                if not step["done"]:
                    step["done"] = True
                    self._save()
                return True
        return False

    def summary(self) -> dict:
        if self.plan is None:
            return {"epoch": None, "steps": 0, "done": 0}
        steps = self.plan["steps"]
        return {
            "epoch": self.plan["epoch"],
            "steps": len(steps),
            "done": sum(1 for s in steps if s["done"]),
        }


def execute_plan(
    plan: dict,
    addresses: Dict[str, str],
    ack: Callable[[str], None],
    retry: Optional[RetryPolicy] = None,
    limit: Optional[int] = None,
) -> dict:
    """Run the plan's pending steps: fetch each container image from a
    holder, push it to its new home, acknowledge.

    ``limit`` caps the steps executed this invocation (the crash-recovery
    drill runs the first half, "crashes", and resumes).  Connections are
    cached per node; the origin's mirrored catalog follows its containers
    to each new home once per ``(origin, dst)`` pair, so a later failover
    restore from that home has the run metadata too.
    """
    clients: Dict[str, NetClient] = {}

    def client_for(name: str) -> NetClient:
        if name not in clients:
            host, port = _parse_address(addresses[name])
            clients[name] = NetClient(
                host, port, client_name="rebalance", retry=retry
            )
        return clients[name]

    executed = 0
    failed: List[dict] = []
    catalogs_shipped = set()
    try:
        for step in plan["steps"]:
            if step["done"]:
                continue
            if limit is not None and executed >= limit:
                break
            origin, cid, dst = step["origin"], step["container_id"], step["dst"]
            sources = [s for s in step["sources"] if s in addresses]
            error: Optional[str] = None
            image = None
            for source in sources:
                try:
                    payload = client_for(source).call(
                        m.CONTAINER_FETCH,
                        m.encode_json({"origin": origin, "container_id": cid}),
                    )
                    _, image = m.decode_container_image(payload)
                    break
                except Exception as exc:
                    error = f"fetch from {source}: {exc}"
                    continue
            if image is None:
                failed.append({"id": step["id"], "error": error or "no source"})
                continue
            try:
                client_for(dst).call(
                    m.CONTAINER_PUSH,
                    m.encode_container_image(
                        {"origin": origin, "container_id": cid}, image
                    ),
                )
                if (origin, dst) not in catalogs_shipped:
                    _ship_catalog(client_for, sources, origin, dst)
                    catalogs_shipped.add((origin, dst))
            except Exception as exc:
                failed.append({"id": step["id"], "error": f"push to {dst}: {exc}"})
                continue
            ack(step["id"])
            step["done"] = True
            executed += 1
    finally:
        for net in clients.values():
            net.close()
    pending = sum(1 for s in plan["steps"] if not s["done"])
    return {
        "executed": executed,
        "failed": failed,
        "pending": pending,
        "total": len(plan["steps"]),
    }


def _ship_catalog(client_for, sources: List[str], origin: str, dst: str) -> None:
    """Best-effort catalog mirror to a container's new home."""
    for source in sources:
        try:
            doc = m.decode_json(
                client_for(source).call(
                    m.CATALOG_FETCH, m.encode_json({"origin": origin})
                )
            )
            catalog = doc.get("catalog")
            if not isinstance(catalog, dict):
                continue
            client_for(dst).call(
                m.CATALOG_PUSH,
                m.encode_json({"origin": origin, "catalog": catalog}),
            )
            return
        except Exception:
            continue
