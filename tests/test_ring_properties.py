"""Property tests for the placement ring (DESIGN.md §11.1).

Every node's replicator and the front door's rebalance planner build
the ring independently from the same inputs and trust each other to
place every key identically, and the rebalancer trusts that a join
disturbs only ~1/N of the keys.  These are exactly the properties
checked here, under hypothesis-generated node sets and key populations:

* **monotonicity** (exact, not statistical): adding a node either
  leaves a key's primary alone or moves it *to the new node* — the
  consistent-hashing contract that makes rebalance plans small;
* **bounded movement**: the moved fraction stays in the same ballpark
  as the ideal 1/N (vnode variance allowed for, hard cap enforced);
* **replica sets** never repeat a node and have exactly
  ``min(rf, n)`` members, with the origin heading its containers';
* **determinism across processes**: a subprocess building the ring
  from the same constructor inputs places a key population identically
  (byte-equal JSON), which is what lets two processes agree on
  placement without exchanging it.
"""

import json
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.replication.ring import PlacementRing

node_names = st.lists(
    st.text(alphabet="abcdefghij0123456789-", min_size=1, max_size=8),
    min_size=1, max_size=8, unique=True,
)

keys_strategy = st.lists(
    st.integers(min_value=0, max_value=10**9), min_size=1, max_size=200,
    unique=True,
).map(lambda ids: [f"ctr:n:{i}" for i in ids])


@settings(max_examples=50, deadline=None)
@given(nodes=node_names, keys=keys_strategy, new=st.text(
    alphabet="xyz", min_size=1, max_size=6))
def test_join_moves_keys_only_to_the_new_node(nodes, keys, new):
    """Exact invariant: a key's primary survives a join or moves to the
    joiner — never to a third node."""
    if new in nodes:
        return
    before = PlacementRing(nodes, replication_factor=1)
    after = PlacementRing(nodes + [new], replication_factor=1)
    for key in keys:
        old = before.replicas(key, rf=1)[0]
        now = after.replicas(key, rf=1)[0]
        assert now == old or now == new, (
            f"{key!r} moved {old!r} -> {now!r}, not to the joiner {new!r}"
        )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    keys=st.just([f"ctr:origin:{i}" for i in range(600)]),
)
def test_join_moves_about_one_nth_of_keys(n, keys):
    """The moved fraction is ≈1/(n+1): generously capped at 3× the ideal
    (64 vnodes leave real variance on small rings), and never zero for a
    key population this large."""
    nodes = [f"node{i}" for i in range(n)]
    before = PlacementRing(nodes, replication_factor=1)
    after = PlacementRing(nodes + ["joiner"], replication_factor=1)
    moved = sum(
        1 for k in keys
        if before.replicas(k, rf=1)[0] != after.replicas(k, rf=1)[0]
    )
    fraction = moved / len(keys)
    ideal = 1.0 / (n + 1)
    assert fraction <= min(3.0 * ideal, 1.0), (
        f"join moved {fraction:.1%} of keys, ideal {ideal:.1%}"
    )
    assert moved > 0, "a joiner that owns nothing is not in the ring"


@settings(max_examples=50, deadline=None)
@given(nodes=node_names, rf=st.integers(min_value=1, max_value=6),
       key_id=st.integers(min_value=0, max_value=10**9))
def test_replica_sets_are_distinct_and_sized(nodes, rf, key_id):
    ring = PlacementRing(nodes, replication_factor=rf)
    replicas = ring.replicas(f"ctr:a:{key_id}")
    assert len(replicas) == len(set(replicas)), "replica set repeats a node"
    assert len(replicas) == min(rf, len(nodes))
    assert set(replicas) <= set(nodes)
    # Container form: the origin leads, peers fill the remaining slots.
    origin = nodes[key_id % len(nodes)]
    full = ring.replicas_for_container(origin, key_id)
    assert full[0] == origin
    assert len(full) == len(set(full)) == min(rf, len(nodes))


@settings(max_examples=50, deadline=None)
@given(nodes=node_names, keys=keys_strategy)
def test_leave_is_the_mirror_of_join(nodes, keys):
    """Removing a node re-homes only the keys it owned."""
    if len(nodes) < 2:
        return
    ring = PlacementRing(nodes, replication_factor=1)
    gone = nodes[0]
    shrunk = PlacementRing(nodes[1:], replication_factor=1)
    for key in keys:
        old = ring.replicas(key, rf=1)[0]
        now = shrunk.replicas(key, rf=1)[0]
        if old != gone:
            assert now == old, f"{key!r} moved although {gone!r} never owned it"


_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.replication.ring import PlacementRing
spec = json.load(sys.stdin)
ring = PlacementRing(spec["nodes"], replication_factor=spec["rf"])
print(json.dumps({k: ring.replicas(k) for k in spec["keys"]}, sort_keys=True))
"""


def test_ring_iteration_deterministic_across_processes():
    """Placement is a pure function of the ring's inputs: a *separate
    interpreter* given only the node list and replication factor places
    300 keys byte-identically."""
    ring = PlacementRing(["alpha", "beta", "gamma", "delta"],
                         replication_factor=3)
    keys = [f"ctr:alpha:{i}" for i in range(200)]
    keys += [f"idx:6:{i}" for i in range(50)]
    keys += [f"job:job{i}" for i in range(50)]
    local = json.dumps(
        {k: ring.replicas(k) for k in keys}, sort_keys=True
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, src],
        input=json.dumps({
            "nodes": ring.nodes, "rf": ring.replication_factor, "keys": keys,
        }),
        capture_output=True, text=True, check=True,
    )
    assert child.stdout.strip() == local
