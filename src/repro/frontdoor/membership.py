"""Cluster membership: the node table behind the front door (DESIGN.md §14.1).

:class:`ClusterMembership` is the single mutable truth the router holds:
which nodes exist (name + address), which are currently reachable, and
an **epoch** counter that advances only when the *set of members*
changes.  The split matters:

* join/leave change where keys live — the :class:`PlacementRing` is
  rebuilt and the epoch bumps;
* mark-down/mark-up are health facts, not placement facts — a node that
  misses K probes stops receiving routed traffic, but its keys do *not*
  move (its replica set keeps serving them), so the epoch stays put and
  nothing rebalances on a transient blip.

The table persists to ``<state>/membership.json`` (atomic tmp+replace)
so a restarted router comes back knowing the cluster it fronted;
probe-state is persisted too, but a restart optimistically resets every
member to ``up`` and lets the health monitor re-discover reality.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.durability.fsshim import atomic_write
from repro.replication.ring import DEFAULT_VNODES, PlacementRing

_STATE_FILE = "membership.json"

STATE_UP = "up"
STATE_DOWN = "down"


class MembershipError(ValueError):
    """An invalid membership mutation (bad name, conflicting address...)."""


@dataclass
class NodeEntry:
    """One member: its address and the health monitor's view of it."""

    name: str
    address: str  # "host:port"
    state: str = STATE_UP
    fails: int = 0  # consecutive failed probes

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "address": self.address,
            "state": self.state,
            "fails": self.fails,
        }


class ClusterMembership:
    """The router's node table: members, health state, ring epoch."""

    def __init__(
        self,
        state_dir: Optional[Path] = None,
        replication_factor: int = 2,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        self.replication_factor = replication_factor
        self.vnodes = vnodes
        self.epoch = 0
        self._nodes: Dict[str, NodeEntry] = {}
        self._lock = threading.Lock()  # loop thread + health thread + CLI
        if state_dir is not None:
            Path(state_dir).mkdir(parents=True, exist_ok=True)
            self._state_path = Path(state_dir) / _STATE_FILE
        else:
            self._state_path = None
        self._load()

    # -- persistence --------------------------------------------------------------
    def _load(self) -> None:
        if self._state_path is None or not self._state_path.exists():
            return
        doc = json.loads(self._state_path.read_text())
        self.epoch = int(doc.get("epoch", 0))
        self.replication_factor = int(
            doc.get("replication_factor", self.replication_factor)
        )
        self.vnodes = int(doc.get("vnodes", self.vnodes))
        for entry in doc.get("nodes", []):
            # A restarted router assumes everyone is up until probed; the
            # persisted state only encodes *who belongs*, not who answers.
            self._nodes[entry["name"]] = NodeEntry(
                name=entry["name"], address=entry["address"]
            )

    def _save_locked(self) -> None:
        if self._state_path is None:
            return
        doc = {
            "epoch": self.epoch,
            "replication_factor": self.replication_factor,
            "vnodes": self.vnodes,
            "nodes": [
                self._nodes[name].to_doc() for name in sorted(self._nodes)
            ],
        }
        atomic_write(
            self._state_path, json.dumps(doc, indent=1, sort_keys=True).encode()
        )

    # -- membership mutations (epoch-bearing) --------------------------------------
    def join(self, name: str, address: str) -> bool:
        """Add (or re-address) a member; returns True when the epoch moved.

        Idempotent: re-joining with the same name and address is a no-op
        (a restarted ``serve --advertise`` must not churn the ring).  A
        re-join always resets the member to ``up`` — the node just spoke
        to us, which outranks any stale probe history.
        """
        if not name or "=" in name or "/" in name:
            raise MembershipError(f"invalid node name {name!r}")
        if ":" not in address:
            raise MembershipError(f"expected host:port address, got {address!r}")
        with self._lock:
            entry = self._nodes.get(name)
            if entry is not None and entry.address == address:
                entry.state = STATE_UP
                entry.fails = 0
                self._save_locked()
                return False
            self._nodes[name] = NodeEntry(name=name, address=address)
            self.epoch += 1
            self._save_locked()
            return True

    def leave(self, name: str) -> bool:
        """Remove a member; returns True when it existed (epoch moved)."""
        with self._lock:
            if name not in self._nodes:
                return False
            del self._nodes[name]
            self.epoch += 1
            self._save_locked()
            return True

    # -- health mutations (epoch-neutral) ------------------------------------------
    def record_probe(
        self, name: str, ok: bool, mark_down_after: int = 3
    ) -> Optional[str]:
        """Fold one probe result in; returns the transition (``"up"`` /
        ``"down"``) when the node's state flipped, else ``None``.

        One success marks a down node up immediately (asymmetric on
        purpose: a recovering node should take traffic as soon as it
        answers, while marking down waits out ``mark_down_after``
        consecutive failures so one dropped packet doesn't fail a node).
        """
        with self._lock:
            entry = self._nodes.get(name)
            if entry is None:
                return None
            if ok:
                entry.fails = 0
                if entry.state != STATE_UP:
                    entry.state = STATE_UP
                    self._save_locked()
                    return STATE_UP
                return None
            entry.fails += 1
            if entry.state == STATE_UP and entry.fails >= mark_down_after:
                entry.state = STATE_DOWN
                self._save_locked()
                return STATE_DOWN
            return None

    # -- views ---------------------------------------------------------------------
    def ring(self) -> PlacementRing:
        """The placement ring over *all* members (down ones included).

        Placement is a membership fact: a marked-down node still owns its
        keys — reads fail over to its replica set — until an operator
        decides it left for good (``NODE_LEAVE`` / ``repro rebuild``).
        """
        with self._lock:
            names = sorted(self._nodes)
            if not names:
                raise MembershipError("cluster has no members")
            return PlacementRing(
                names,
                replication_factor=self.replication_factor,
                vnodes=self.vnodes,
            )

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._nodes)

    def live_names(self) -> List[str]:
        with self._lock:
            return sorted(
                n for n, e in self._nodes.items() if e.state == STATE_UP
            )

    def address(self, name: str) -> str:
        with self._lock:
            entry = self._nodes.get(name)
            if entry is None:
                raise MembershipError(f"unknown node {name!r}")
            return entry.address

    def addresses(self) -> Dict[str, str]:
        with self._lock:
            return {n: e.address for n, e in self._nodes.items()}

    def is_up(self, name: str) -> bool:
        with self._lock:
            entry = self._nodes.get(name)
            return entry is not None and entry.state == STATE_UP

    def describe(self) -> dict:
        """The ``CLUSTER_STATUS`` body: epoch, rf, per-node health."""
        with self._lock:
            return {
                "epoch": self.epoch,
                "replication_factor": self.replication_factor,
                "vnodes": self.vnodes,
                "nodes": [
                    self._nodes[name].to_doc() for name in sorted(self._nodes)
                ],
            }
