"""``repro.net`` — the wire protocol between backup clients and servers.

DEBAR's architecture (Section 3) is a director plus backup servers plus
client backup engines talking over a network; this package makes those node
boundaries real.  It provides, bottom up:

- :mod:`repro.net.framing` — a length-prefixed, versioned binary frame
  layer with a handshake (DESIGN.md §9.1).
- :mod:`repro.net.messages` — the typed message catalogue: batched
  preliminary-filter queries, chunk appends into the chunk log, metadata
  put/get, the dedup-2 trigger and LPC-backed chunk reads
  (DESIGN.md §9.2).
- :mod:`repro.net.aioserver` — the asyncio frame-server skeleton (bind,
  lifecycle, task tracking, frame I/O) under both daemons, ``repro
  serve`` and ``repro route``.
- :mod:`repro.net.server` — ``repro serve``: an async multiplexed event
  loop hosting a :class:`~repro.system.vault.DebarVault` behind the
  protocol, with admission control and per-tenant auth/quotas
  (DESIGN.md §12).
- :mod:`repro.net.client` — :class:`RemoteBackupClient`, mirroring the
  in-process vault API so the CLI runs against ``--connect host:port``
  unchanged, and :class:`WireSource`, ``CHUNK_READ`` as a source of the
  one chunk reader (:mod:`repro.storage.reader`).
- :mod:`repro.net.shipper` — :class:`~repro.net.shipper.AsyncShipper`,
  the one engine that ships work to peers after dedup-2 (replication
  and archive are policies over it; DESIGN.md §11.2, §15.4).
- :mod:`repro.net.faults` — deterministic frame-level fault injection
  (drop / truncate / duplicate), the network face of
  :mod:`repro.audit.faults`.

Every byte in or out is counted under the ``net.*`` telemetry names
(DESIGN.md §8): ``net.bytes_sent`` / ``net.bytes_received`` (labelled by
role), ``net.requests`` / ``net.responses`` per message type,
``net.rpc_latency`` histograms and ``net.retries``.
"""

from repro.net.client import NetClient, RemoteBackupClient, RetryPolicy, WireSource
from repro.net.framing import (
    FRAME_HEADER_SIZE,
    MAX_PAYLOAD,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    BadFrame,
    Frame,
    FrameError,
    ProtocolError,
    TruncatedFrame,
)
from repro.net.server import (
    TenantConfig,
    VaultProtocolServer,
    serve_vault,
)

__all__ = [
    "BadFrame",
    "Frame",
    "FrameError",
    "FRAME_HEADER_SIZE",
    "MAX_PAYLOAD",
    "NetClient",
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteBackupClient",
    "RetryPolicy",
    "TenantConfig",
    "TruncatedFrame",
    "VaultProtocolServer",
    "WireSource",
    "serve_vault",
]
