"""The replica store: a node's holding area for *other* nodes' containers.

A ``repro serve`` daemon that accepts ``CONTAINER_PUSH`` keeps the pushed
images beside — never inside — its own repository::

    vault/
      containers/              this node's own sealed containers
      replicas/
        <origin>/
          000000000003.ctr     origin's container 3, byte-identical image
          catalog.json         origin's mirrored run catalog

Images stay in the exact on-disk format the origin wrote (superblock,
framed records, payload CRCs), so a rebuild pull returns bytes the lost
node could have written itself, and the local scrubber machinery could
sweep them with no special casing.  Every accepted push is re-verified
here — the image must deserialize and every payload must pass its CRC —
so a replica can never launder a corrupt container into the cluster.

The store also answers ``read_chunk`` for failover reads: a lazy
fingerprint → (origin, container) map built from the images' metadata
sections lets the daemon serve chunks it only holds as a replica.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.fingerprint import Fingerprint
from repro.durability.errors import CorruptionError
from repro.durability.fsshim import LocalFs
from repro.storage.container import CONTAINER_SIZE, Container
from repro.system.catalog import (
    has_document,
    mirrored_run_count,
    read_document,
    write_document,
)

_SUFFIX = ".ctr"


class ReplicaStoreError(ValueError):
    """A push that must be refused (corrupt image, bad envelope)."""


def _safe_origin(origin: str) -> str:
    if not origin or any(c in origin for c in "/\\\0") or origin in (".", ".."):
        raise ReplicaStoreError(f"invalid origin node name {origin!r}")
    return origin


class ReplicaStore:
    """Pushed replica containers and catalogs, one subdirectory per origin."""

    def __init__(
        self,
        root: Union[str, Path],
        container_bytes: int = CONTAINER_SIZE,
        fs: Optional[LocalFs] = None,
    ) -> None:
        self.root = Path(root)
        self.container_bytes = container_bytes
        self.fs = fs if fs is not None else LocalFs()
        self._lock = threading.Lock()
        #: fingerprint -> (origin, container_id); rebuilt lazily.
        self._fp_map: Optional[Dict[Fingerprint, Tuple[str, int]]] = None

    # -- layout -----------------------------------------------------------------
    def _origin_dir(self, origin: str) -> Path:
        return self.root / _safe_origin(origin)

    def _path(self, origin: str, container_id: int) -> Path:
        return self._origin_dir(origin) / f"{container_id:012x}{_SUFFIX}"

    def origins(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def container_ids(self, origin: str) -> List[int]:
        folder = self._origin_dir(origin)
        if not folder.is_dir():
            return []
        return sorted(int(p.stem, 16) for p in folder.glob(f"*{_SUFFIX}"))

    def has(self, origin: str, container_id: int) -> bool:
        return self.fs.exists(self._path(origin, container_id))

    def bytes_held(self, origin: str) -> int:
        folder = self._origin_dir(origin)
        if not folder.is_dir():
            return 0
        return sum(p.stat().st_size for p in folder.glob(f"*{_SUFFIX}"))

    # -- ingest -----------------------------------------------------------------
    def put(self, origin: str, container_id: int, image: bytes) -> bool:
        """Accept one pushed container image; returns False on an idempotent
        duplicate (same origin/id already held — the bytes are trusted to
        match because pushes are content-verified and containers immutable).
        """
        path = self._path(origin, container_id)  # validates the origin name
        container = Container.deserialize(
            container_id, image, capacity=self.container_bytes
        )
        faults = container.verify_payloads()
        if faults:
            raise ReplicaStoreError(
                f"pushed container {container_id} from {origin!r} failed "
                f"payload verification ({faults[0].reason})"
            )
        with self._lock:
            if self.fs.exists(path):
                return False
            path.parent.mkdir(parents=True, exist_ok=True)
            self.fs.write_file(path, image)
            self._fp_map = None  # new chunks became servable
        return True

    def put_catalog(self, origin: str, catalog: dict) -> None:
        folder = self._origin_dir(origin)
        folder.mkdir(parents=True, exist_ok=True)
        write_document(folder, catalog, self.fs)

    # -- retrieval ---------------------------------------------------------------
    def fetch_image(self, origin: str, container_id: int) -> bytes:
        path = self._path(origin, container_id)
        if not self.fs.exists(path):
            raise KeyError(
                f"no replica of container {container_id} from {origin!r}"
            )
        return self.fs.read_file(path)

    def catalog(self, origin: str) -> dict:
        if not self.has_catalog(origin):
            raise KeyError(f"no mirrored catalog for {origin!r}")
        return read_document(self._origin_dir(origin), self.fs)

    def has_catalog(self, origin: str) -> bool:
        return has_document(self._origin_dir(origin))

    def _ensure_fp_map(self) -> Dict[Fingerprint, Tuple[str, int]]:
        with self._lock:
            if self._fp_map is None:
                fp_map: Dict[Fingerprint, Tuple[str, int]] = {}
                for origin in self.origins():
                    for cid in self.container_ids(origin):
                        try:
                            container = Container.deserialize(
                                cid,
                                self.fs.read_file(self._path(origin, cid)),
                                capacity=self.container_bytes,
                            )
                        except CorruptionError:
                            continue  # rotted replica: never served
                        for fp in container.fingerprints:
                            fp_map.setdefault(fp, (origin, cid))
                self._fp_map = fp_map
            return self._fp_map

    def read_chunk(self, fp: Fingerprint) -> bytes:
        """Serve one chunk out of any held replica (failover reads)."""
        location = self._ensure_fp_map().get(fp)
        if location is None:
            raise KeyError(f"fingerprint {fp.hex()[:12]} not replicated here")
        origin, cid = location
        container = Container.deserialize(
            cid, self.fetch_image(origin, cid), capacity=self.container_bytes
        )
        return container.get(fp)

    # -- inventory ---------------------------------------------------------------
    def status(self) -> Dict[str, dict]:
        """Per-origin inventory, the body of a ``REPL_STATUS`` response."""
        out: Dict[str, dict] = {}
        for origin in self.origins():
            cids = self.container_ids(origin)
            entry = {
                "containers": len(cids),
                "container_ids": cids,
                "bytes": self.bytes_held(origin),
                "catalog_runs": None,
            }
            if self.has_catalog(origin):
                try:
                    entry["catalog_runs"] = mirrored_run_count(self.catalog(origin))
                except (CorruptionError, OSError):
                    entry["catalog_runs"] = None
            out[origin] = entry
        return out
