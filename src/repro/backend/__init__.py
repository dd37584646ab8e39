"""Pluggable storage backends: the seam under the container repository.

Sealed SISL containers are immutable — ideal cold-tier objects.  This
package abstracts *where their bytes live* behind a small key/value
interface (:class:`StorageBackend`: put / get / get_range / get_ranges /
delete / list / stat), implemented by :class:`ObjectStoreBackend` — an
S3-style object store with byte-range reads, a simulated per-request
latency/throughput profile, and fault injection (throttling, transient
5xx-style errors) behind retry with exponential backoff.  (The hot tier
is :class:`~repro.storage.file_repository.FileChunkRepository`, not a
backend.)

On top of the interface sit the cold-tier read planner (adjacent chunk
ranges coalesced into batched multi-range GETs — :mod:`repro.backend.planner`),
a pluggable container-metadata cache (:mod:`repro.backend.cache`), and the
hot→cold lifecycle manager (:mod:`repro.backend.lifecycle`).  The tiered
repository that threads them under the existing vault stack is
:class:`repro.storage.tiered.TieredChunkRepository`.  See DESIGN.md §13.
"""

from repro.backend.base import (
    BackendError,
    BackendTelemetry,
    ObjectMissingError,
    ObjectStat,
    RetryExhaustedError,
    StorageBackend,
    ThrottledError,
    TransientBackendError,
)
from repro.backend.cache import LruMetaCache, MetaCache, NullMetaCache
from repro.backend.lifecycle import (
    ContainerAge,
    LifecycleManager,
    LifecyclePolicy,
    MigrationReport,
)
from repro.backend.objectstore import (
    BackendFaultRule,
    ObjectStoreBackend,
    RequestProfile,
)
from repro.backend.planner import TieredSource

__all__ = [
    "BackendError",
    "BackendFaultRule",
    "BackendTelemetry",
    "ContainerAge",
    "LifecycleManager",
    "LifecyclePolicy",
    "LruMetaCache",
    "MetaCache",
    "MigrationReport",
    "NullMetaCache",
    "ObjectMissingError",
    "ObjectStat",
    "ObjectStoreBackend",
    "RequestProfile",
    "RetryExhaustedError",
    "StorageBackend",
    "ThrottledError",
    "TieredSource",
    "TransientBackendError",
]
