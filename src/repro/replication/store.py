"""The replica store: a node's holding area for *other* nodes' containers.

A ``repro serve`` daemon that accepts ``CONTAINER_PUSH`` keeps the pushed
images beside — never inside — its own repository::

    vault/
      containers/              this node's own sealed containers
      replicas/
        <origin>/
          000000000003.ctr     origin's container 3, byte-identical image
          catalog.json         origin's mirrored run catalog

Each ``replicas/<origin>/`` directory is a
:class:`~repro.storage.file_repository.FileChunkRepository`, the same
container directory a vault keeps: images stay in the exact on-disk format
the origin wrote (superblock, framed records, payload CRCs), so a rebuild
pull returns bytes the lost node could have written itself.  Every
accepted push passes :meth:`~repro.storage.container.Container.verified`
first — it must parse, every payload must pass its CRC and re-hash to its
fingerprint — so a replica can never launder a corrupt container into the
cluster.

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
from repro.storage.file_repository import FileChunkRepository
from repro.system.catalog import (
    has_document,
    mirrored_run_count,
    read_document,
    write_document,
)


class ReplicaStoreError(ValueError):
    """A push that must be refused (bad envelope)."""


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
        self._repos: Dict[str, FileChunkRepository] = {}
        #: fingerprint -> (origin, container_id); rebuilt lazily.
        self._fp_map: Optional[Dict[Fingerprint, Tuple[str, int]]] = None

    # -- layout -----------------------------------------------------------------
    def _origin_dir(self, origin: str) -> Path:
        return self.root / _safe_origin(origin)

    def repository(self, origin: str) -> FileChunkRepository:
        """The container directory of ``origin`` (``KeyError`` if none is
        held; :meth:`put` creates it)."""
        folder = self._origin_dir(origin)
        repo = self._repos.get(origin)
        if repo is None:
            if not folder.is_dir():
                raise KeyError(f"no replicas from {origin!r}")
            repo = self._repos.setdefault(origin, FileChunkRepository(
                folder, container_bytes=self.container_bytes, fs=self.fs
            ))
        return repo

    def origins(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def container_ids(self, origin: str) -> List[int]:
        try:
            return self.repository(origin).container_ids()
        except KeyError:
            return []

    # -- ingest -----------------------------------------------------------------
    def put(self, origin: str, container_id: int, image: bytes) -> bool:
        """Accept one pushed container image; returns False on an idempotent
        duplicate (same origin/id already held — the bytes are trusted to
        match because pushes are content-verified and containers immutable).
        """
        folder = self._origin_dir(origin)  # validates the origin name
        Container.verified(container_id, image, capacity=self.container_bytes)
        with self._lock:
            folder.mkdir(parents=True, exist_ok=True)
            repo = self.repository(origin)
            if container_id in repo:
                return False
            repo.write_image(container_id, image)
            self._fp_map = None  # new chunks became servable
        return True

    def put_catalog(self, origin: str, catalog: dict) -> None:
        folder = self._origin_dir(origin)
        folder.mkdir(parents=True, exist_ok=True)
        write_document(folder, catalog, self.fs)

    # -- retrieval ---------------------------------------------------------------
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
                    repo = self.repository(origin)
                    for cid in repo.container_ids():
                        try:
                            records, _ = repo.fetch_meta(cid)
                        except CorruptionError:
                            continue  # rotted replica: never served
                        for record in records:
                            fp_map.setdefault(record.fingerprint, (origin, cid))
                self._fp_map = fp_map
            return self._fp_map

    def read_chunk(self, fp: Fingerprint) -> bytes:
        """Serve one chunk out of any held replica (failover reads)."""
        location = self._ensure_fp_map().get(fp)
        if location is None:
            raise KeyError(f"fingerprint {fp.hex()[:12]} not replicated here")
        origin, cid = location
        return self.repository(origin).fetch(cid).get(fp)

    # -- inventory ---------------------------------------------------------------
    def status(self) -> Dict[str, dict]:
        """Per-origin inventory, the body of a ``REPL_STATUS`` response."""
        out: Dict[str, dict] = {}
        for origin in self.origins():
            repo = self.repository(origin)
            cids = repo.container_ids()
            entry = {
                "containers": len(cids),
                "container_ids": cids,
                "bytes": sum(self.fs.file_size(repo.path_for(c)) for c in cids),
                "catalog_runs": None,
            }
            if self.has_catalog(origin):
                try:
                    entry["catalog_runs"] = mirrored_run_count(self.catalog(origin))
                except (CorruptionError, OSError):
                    entry["catalog_runs"] = None
            out[origin] = entry
        return out
