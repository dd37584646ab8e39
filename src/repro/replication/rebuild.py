"""Node rebuild: reconstruct a lost node from its surviving replicas.

``repro rebuild --node K`` points this module at the surviving peers.
The protocol (DESIGN.md §11.4):

1. ``REPL_STATUS`` every peer — who holds which of K's containers, and
   who holds K's mirrored catalog;
2. ``CATALOG_FETCH`` the catalog (any holder — the mirror is an exact
   copy, and it carries the vault geometry the new vault must reopen
   with);
3. ``CONTAINER_FETCH`` every container id the status union named, first
   holder wins, next holder on failure;
4. verify each pulled image **fingerprint by fingerprint** — the image
   must deserialize, every payload CRC must hold, and every record's
   payload must re-hash to its fingerprint — before the byte-identical
   image lands in the new vault's ``containers/``;
5. reopen the vault and :meth:`~repro.system.vault.DebarVault.recover_index`
   (the paper's Section 4.1 metadata-section recovery), then audit.

Because replica images are byte-identical to what the lost node wrote,
the rebuilt vault is indistinguishable from one that never died — modulo
containers sealed after the last replication drain, which no replica
ever saw and which the report lists as unrecoverable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.fingerprint import fingerprint as sha1
from repro.durability.errors import CorruptionError
from repro.net import messages as m
from repro.net.client import NetClient, RemoteError, RetryPolicy
from repro.net.framing import ProtocolError
from repro.storage.container import Container
from repro.system.catalog import (
    VaultError,
    check_document,
    has_document,
    mirrored_run_count,
    write_document,
)

PathLike = Union[str, Path]


class RebuildError(Exception):
    """The rebuild cannot produce a complete, verified vault."""


@dataclass
class RebuildReport:
    """What a node rebuild recovered, and from where."""

    node: str
    containers_recovered: int = 0
    containers_missing: List[int] = field(default_factory=list)
    chunks_verified: int = 0
    bytes_recovered: int = 0
    index_entries: int = 0
    catalog_runs: int = 0
    catalog_source: Optional[str] = None
    #: container id -> peer that supplied the verified image.
    sources: Dict[int, str] = field(default_factory=dict)
    audit_ok: Optional[bool] = None
    notes: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "node": self.node,
            "containers_recovered": self.containers_recovered,
            "containers_missing": self.containers_missing,
            "chunks_verified": self.chunks_verified,
            "bytes_recovered": self.bytes_recovered,
            "index_entries": self.index_entries,
            "catalog_runs": self.catalog_runs,
            "catalog_source": self.catalog_source,
            "sources": {str(cid): peer for cid, peer in self.sources.items()},
            "audit_ok": self.audit_ok,
            "notes": self.notes,
        }


def verify_image(node: str, container_id: int, image: bytes, capacity: int) -> int:
    """Fingerprint-by-fingerprint verification of one pulled image.

    Returns the number of verified chunks; raises
    :class:`~repro.durability.errors.CorruptionError` on the first record
    whose payload fails its CRC or does not re-hash to its fingerprint.
    """
    container = Container.deserialize(container_id, image, capacity=capacity)
    faults = container.verify_payloads()
    if faults:
        raise CorruptionError(
            f"replica image of container {container_id} ({node}) failed "
            f"payload verification: {faults[0].reason}",
            artifact="container", container_id=container_id,
        )
    for record in container.records:
        if sha1(container.get(record.fingerprint)) != record.fingerprint:
            raise CorruptionError(
                f"container {container_id} ({node}): payload of "
                f"{record.fingerprint.hex()[:12]} does not re-hash to its "
                f"fingerprint",
                artifact="container",
                container_id=container_id,
                fingerprint=record.fingerprint,
            )
    return len(container.records)


def rebuild_node(
    node: str,
    vault_root: PathLike,
    peers: Dict[str, Tuple[str, int]],
    retry: Optional[RetryPolicy] = None,
    audit: bool = True,
) -> RebuildReport:
    """Reconstruct ``node``'s vault at ``vault_root`` from ``peers``.

    ``vault_root`` must not already contain a vault (no catalog file) —
    rebuilding over live data would be destructive.  Raises
    :class:`RebuildError` when no peer holds a well-formed catalog of the
    node or when a named container cannot be pulled and verified from any
    holder.  The catalog is written last and atomically, so an interrupted
    rebuild leaves no vault behind and can simply be run again.
    """
    if not peers:
        raise RebuildError("rebuild needs at least one surviving peer")
    root = Path(vault_root)
    if has_document(root):
        raise RebuildError(
            f"{root} already holds a vault; rebuild refuses to overwrite it"
        )
    report = RebuildReport(node=node)
    clients: Dict[str, NetClient] = {}
    try:
        for name, (host, port) in peers.items():
            clients[name] = NetClient(
                host, port, client_name=f"rebuild:{node}", retry=retry
            )
        # 1. Inventory: who holds what of the lost node's.
        holders: Dict[int, List[str]] = {}
        catalog_holders: List[str] = []
        for name, client in clients.items():
            try:
                status = client.call_json(m.REPL_STATUS, {})
            except (ProtocolError, OSError) as exc:
                report.notes.append(f"peer {name} unreachable for status: {exc}")
                continue
            held = status.get("replicas", {}).get(node)
            if not held:
                continue
            for cid in held.get("container_ids", []):
                holders.setdefault(int(cid), []).append(name)
            if held.get("catalog_runs") is not None:
                catalog_holders.append(name)
        if not catalog_holders:
            raise RebuildError(
                f"no surviving peer holds a mirrored catalog for {node!r}"
            )
        # 2. The catalog: geometry + run metadata, any holder.
        catalog: Optional[dict] = None
        for name in catalog_holders:
            try:
                doc = clients[name].call_json(m.CATALOG_FETCH, {"origin": node})
                # A mirror is outside input: nothing is written from it
                # until it passes the same check a vault open applies.
                catalog = check_document(doc["catalog"])
                report.catalog_source = name
                break
            except (
                RemoteError, ProtocolError, OSError, KeyError,
                CorruptionError, VaultError,
            ) as exc:
                report.notes.append(f"catalog fetch from {name} failed: {exc}")
        if catalog is None:
            raise RebuildError(
                f"could not fetch a usable catalog of {node!r} from any peer: "
                + "; ".join(report.notes)
            )
        capacity = catalog["container_bytes"]
        root.mkdir(parents=True, exist_ok=True)
        containers_dir = root / "containers"
        containers_dir.mkdir(exist_ok=True)
        # 3 + 4. Pull and verify every container the inventory named.
        for cid in sorted(holders):
            image: Optional[bytes] = None
            for name in holders[cid]:
                try:
                    payload = clients[name].call(
                        m.CONTAINER_FETCH,
                        m.encode_json({"origin": node, "container_id": cid}),
                    )
                    _, candidate = m.decode_container_image(payload)
                    report.chunks_verified += verify_image(
                        node, cid, candidate, capacity or len(candidate)
                    )
                    image = candidate
                    report.sources[cid] = name
                    break
                except (
                    RemoteError, ProtocolError, OSError, CorruptionError,
                ) as exc:
                    report.notes.append(
                        f"container {cid} from {name} rejected: {exc}"
                    )
            if image is None:
                report.containers_missing.append(cid)
                continue
            (containers_dir / f"{cid:012x}.ctr").write_bytes(image)
            report.containers_recovered += 1
            report.bytes_recovered += len(image)
        if report.containers_missing:
            raise RebuildError(
                f"containers {report.containers_missing} of {node!r} could "
                f"not be pulled from any surviving peer"
            )
        # 5. Catalog down, containers down: reopen and recover the index.
        report.catalog_runs = mirrored_run_count(catalog)
        write_document(root, catalog)
        from repro.system.vault import DebarVault

        with DebarVault(root) as vault:
            report.index_entries = vault.recover_index()
            if audit:
                audit_report = vault.audit(deep=True)
                report.audit_ok = audit_report.ok
                if not audit_report.ok:
                    report.notes.extend(
                        str(f) for f in audit_report.errors[:10]
                    )
        return report
    finally:
        for client in clients.values():
            client.close()
