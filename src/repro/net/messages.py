"""The typed message catalogue riding on the frame layer (DESIGN.md §9.2).

Two payload encodings, chosen per message by what dominates it:

- *Control* messages (session begin/commit, dedup-2 trigger, stats, gc,
  verify...) carry UTF-8 JSON — small, self-describing, easy to extend.
- *Bulk* messages (fingerprint batches, chunk batches, file indices) carry
  a compact binary layout built from the helpers below, because a backup
  moves millions of 20-byte fingerprints and hex-in-JSON would double the
  exchange volume the protocol exists to measure.

Binary building blocks (all integers big-endian):

``fingerprint list``
    ``u32 count`` then ``count`` raw 20-byte fingerprints.
``sized fingerprint list``
    ``u32 count`` then ``count`` records of ``fp(20) + u32 chunk_size``.
``chunk batch``
    ``u32 count`` then ``count`` records of ``fp(20) + u32 len + payload``.
``file entry``
    ``u32 json_len + metadata JSON + fingerprint list`` — the metadata
    (path/size/mode/mtime) is JSON, the fingerprint sequence binary.
``decision bitmap``
    ``u32 count`` then ``ceil(count/8)`` bytes, bit ``i`` (LSB-first within
    each byte) set when chunk ``i`` passed the preliminary filter and its
    payload must be transferred.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Sequence, Tuple

from repro.core.fingerprint import FINGERPRINT_SIZE, Fingerprint
from repro.net.framing import MAX_PAYLOAD, ProtocolError

# -- message type codes ------------------------------------------------------------
# Handshake and plumbing.
HELLO = 0x01
HELLO_OK = 0x02
PING = 0x04
PONG = 0x05
ERROR = 0x7F

# Backup session flow (dedup-1 over the wire).
SESSION_BEGIN = 0x10
SESSION_OK = 0x11
FILTER_QUERY = 0x12
FILTER_RESULT = 0x13
CHUNK_APPEND = 0x14
APPEND_OK = 0x15
META_PUT = 0x16
META_OK = 0x17
SESSION_COMMIT = 0x18
RUN_OK = 0x19
SESSION_ABORT = 0x1A
ABORT_OK = 0x1B

# Maintenance and queries.
DEDUP2 = 0x20
DEDUP2_OK = 0x21
CHUNK_READ = 0x22
CHUNK_DATA = 0x23
META_GET = 0x24
META_ENTRIES = 0x25
RUNS = 0x26
RUNS_OK = 0x27
STATS = 0x28
STATS_OK = 0x29
GC = 0x2A
GC_OK = 0x2B
VERIFY = 0x2C
VERIFY_OK = 0x2D
FORGET = 0x2E
FORGET_OK = 0x2F

# Replication (DESIGN.md §11): container shipping, replica inventory,
# rebuild pulls, and catalog mirroring.
CONTAINER_PUSH = 0x40
CONTAINER_PUSH_OK = 0x41
REPL_STATUS = 0x42
REPL_STATUS_OK = 0x43
CONTAINER_FETCH = 0x44
CONTAINER_IMAGE = 0x45
CATALOG_PUSH = 0x46
CATALOG_OK = 0x47
CATALOG_FETCH = 0x48
CATALOG_DATA = 0x49

# Front door (DESIGN.md §14): cluster membership, routing lookups, and
# the rebalancing protocol.  All JSON payloads — routing traffic is
# control-plane small; the bulk path stays on the messages above.
ROUTE_LOOKUP = 0x50
ROUTE_INFO = 0x51
ROUTE_HINT = 0x52
ROUTE_HINT_OK = 0x53
NODE_JOIN = 0x54
NODE_JOIN_OK = 0x55
NODE_LEAVE = 0x56
NODE_LEAVE_OK = 0x57
CLUSTER_STATUS = 0x58
CLUSTER_STATUS_OK = 0x59
REBALANCE_PLAN = 0x5A
REBALANCE_PLAN_OK = 0x5B
REBALANCE_ACK = 0x5C
REBALANCE_ACK_OK = 0x5D

# Archive (DESIGN.md §15): per-run delta shipping, chain fetches for
# point-in-time restore, archive inventory, and manual merge/retention.
# DELTA_PUSH carries an envelope + packed delta (the container-image
# layout); the rest are JSON control messages, except DELTA_DATA whose
# body is a raw, self-describing delta blob.
DELTA_PUSH = 0x60
DELTA_PUSH_OK = 0x61
DELTA_FETCH = 0x62
DELTA_DATA = 0x63
ARCHIVE_STATUS = 0x64
ARCHIVE_STATUS_OK = 0x65
ARCHIVE_MERGE = 0x66
ARCHIVE_MERGE_OK = 0x67

#: Request type -> its success response type (the dispatch contract).
RESPONSE_OF: Dict[int, int] = {
    HELLO: HELLO_OK,
    PING: PONG,
    SESSION_BEGIN: SESSION_OK,
    FILTER_QUERY: FILTER_RESULT,
    CHUNK_APPEND: APPEND_OK,
    META_PUT: META_OK,
    SESSION_COMMIT: RUN_OK,
    SESSION_ABORT: ABORT_OK,
    DEDUP2: DEDUP2_OK,
    CHUNK_READ: CHUNK_DATA,
    META_GET: META_ENTRIES,
    RUNS: RUNS_OK,
    STATS: STATS_OK,
    GC: GC_OK,
    VERIFY: VERIFY_OK,
    FORGET: FORGET_OK,
    CONTAINER_PUSH: CONTAINER_PUSH_OK,
    REPL_STATUS: REPL_STATUS_OK,
    CONTAINER_FETCH: CONTAINER_IMAGE,
    CATALOG_PUSH: CATALOG_OK,
    CATALOG_FETCH: CATALOG_DATA,
    ROUTE_LOOKUP: ROUTE_INFO,
    ROUTE_HINT: ROUTE_HINT_OK,
    NODE_JOIN: NODE_JOIN_OK,
    NODE_LEAVE: NODE_LEAVE_OK,
    CLUSTER_STATUS: CLUSTER_STATUS_OK,
    REBALANCE_PLAN: REBALANCE_PLAN_OK,
    REBALANCE_ACK: REBALANCE_ACK_OK,
    DELTA_PUSH: DELTA_PUSH_OK,
    DELTA_FETCH: DELTA_DATA,
    ARCHIVE_STATUS: ARCHIVE_STATUS_OK,
    ARCHIVE_MERGE: ARCHIVE_MERGE_OK,
}

#: Message code -> stable name (telemetry labels, error text).
MSG_NAMES: Dict[int, str] = {
    HELLO: "hello",
    HELLO_OK: "hello_ok",
    PING: "ping",
    PONG: "pong",
    ERROR: "error",
    SESSION_BEGIN: "session_begin",
    SESSION_OK: "session_ok",
    FILTER_QUERY: "filter_query",
    FILTER_RESULT: "filter_result",
    CHUNK_APPEND: "chunk_append",
    APPEND_OK: "append_ok",
    META_PUT: "meta_put",
    META_OK: "meta_ok",
    SESSION_COMMIT: "session_commit",
    RUN_OK: "run_ok",
    SESSION_ABORT: "session_abort",
    ABORT_OK: "abort_ok",
    DEDUP2: "dedup2",
    DEDUP2_OK: "dedup2_ok",
    CHUNK_READ: "chunk_read",
    CHUNK_DATA: "chunk_data",
    META_GET: "meta_get",
    META_ENTRIES: "meta_entries",
    RUNS: "runs",
    RUNS_OK: "runs_ok",
    STATS: "stats",
    STATS_OK: "stats_ok",
    GC: "gc",
    GC_OK: "gc_ok",
    VERIFY: "verify",
    VERIFY_OK: "verify_ok",
    FORGET: "forget",
    FORGET_OK: "forget_ok",
    CONTAINER_PUSH: "container_push",
    CONTAINER_PUSH_OK: "container_push_ok",
    REPL_STATUS: "repl_status",
    REPL_STATUS_OK: "repl_status_ok",
    CONTAINER_FETCH: "container_fetch",
    CONTAINER_IMAGE: "container_image",
    CATALOG_PUSH: "catalog_push",
    CATALOG_OK: "catalog_ok",
    CATALOG_FETCH: "catalog_fetch",
    CATALOG_DATA: "catalog_data",
    ROUTE_LOOKUP: "route_lookup",
    ROUTE_INFO: "route_info",
    ROUTE_HINT: "route_hint",
    ROUTE_HINT_OK: "route_hint_ok",
    NODE_JOIN: "node_join",
    NODE_JOIN_OK: "node_join_ok",
    NODE_LEAVE: "node_leave",
    NODE_LEAVE_OK: "node_leave_ok",
    CLUSTER_STATUS: "cluster_status",
    CLUSTER_STATUS_OK: "cluster_status_ok",
    REBALANCE_PLAN: "rebalance_plan",
    REBALANCE_PLAN_OK: "rebalance_plan_ok",
    REBALANCE_ACK: "rebalance_ack",
    REBALANCE_ACK_OK: "rebalance_ack_ok",
    DELTA_PUSH: "delta_push",
    DELTA_PUSH_OK: "delta_push_ok",
    DELTA_FETCH: "delta_fetch",
    DELTA_DATA: "delta_data",
    ARCHIVE_STATUS: "archive_status",
    ARCHIVE_STATUS_OK: "archive_status_ok",
    ARCHIVE_MERGE: "archive_merge",
    ARCHIVE_MERGE_OK: "archive_merge_ok",
}


def msg_name(code: int) -> str:
    return MSG_NAMES.get(code, f"0x{code:02x}")


class MessageError(ProtocolError):
    """A frame payload does not decode as its message type demands."""


_U32 = struct.Struct(">I")


# -- JSON payloads ---------------------------------------------------------------
def encode_json(obj: object) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def decode_json(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MessageError(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(obj, (dict, list)):
        raise MessageError(f"JSON payload must be an object or array, got {type(obj).__name__}")
    return obj


# -- binary primitives -------------------------------------------------------------
def _take(payload: bytes, offset: int, n: int) -> Tuple[bytes, int]:
    end = offset + n
    if end > len(payload):
        raise MessageError(
            f"payload truncated: need {n} bytes at offset {offset}, "
            f"have {len(payload) - offset}"
        )
    return payload[offset:end], end


def _take_u32(payload: bytes, offset: int) -> Tuple[int, int]:
    blob, offset = _take(payload, offset, 4)
    return _U32.unpack(blob)[0], offset


def encode_fps(fps: Sequence[Fingerprint]) -> bytes:
    parts = [_U32.pack(len(fps))]
    for fp in fps:
        if len(fp) != FINGERPRINT_SIZE:
            raise MessageError(f"fingerprint of {len(fp)} bytes, need {FINGERPRINT_SIZE}")
        parts.append(bytes(fp))
    return b"".join(parts)


def decode_fps(payload: bytes, offset: int = 0) -> Tuple[List[Fingerprint], int]:
    count, offset = _take_u32(payload, offset)
    if count * FINGERPRINT_SIZE > len(payload) - offset:
        raise MessageError(f"fingerprint list declares {count} entries beyond payload end")
    fps: List[Fingerprint] = []
    for _ in range(count):
        fp, offset = _take(payload, offset, FINGERPRINT_SIZE)
        fps.append(fp)
    return fps, offset


def encode_sized_fps(entries: Sequence[Tuple[Fingerprint, int]]) -> bytes:
    parts = [_U32.pack(len(entries))]
    for fp, size in entries:
        if len(fp) != FINGERPRINT_SIZE:
            raise MessageError(f"fingerprint of {len(fp)} bytes, need {FINGERPRINT_SIZE}")
        parts.append(bytes(fp) + _U32.pack(size))
    return b"".join(parts)


def decode_sized_fps(payload: bytes, offset: int = 0) -> Tuple[List[Tuple[Fingerprint, int]], int]:
    count, offset = _take_u32(payload, offset)
    record = FINGERPRINT_SIZE + 4
    if count * record > len(payload) - offset:
        raise MessageError(f"sized fingerprint list declares {count} entries beyond payload end")
    entries: List[Tuple[Fingerprint, int]] = []
    for _ in range(count):
        fp, offset = _take(payload, offset, FINGERPRINT_SIZE)
        size, offset = _take_u32(payload, offset)
        entries.append((fp, size))
    return entries, offset


def encode_chunk_batch(chunks: Sequence[Tuple[Fingerprint, bytes]]) -> bytes:
    parts = [_U32.pack(len(chunks))]
    total = 4
    for fp, data in chunks:
        if len(fp) != FINGERPRINT_SIZE:
            raise MessageError(f"fingerprint of {len(fp)} bytes, need {FINGERPRINT_SIZE}")
        parts.append(bytes(fp) + _U32.pack(len(data)))
        parts.append(bytes(data))
        total += FINGERPRINT_SIZE + 4 + len(data)
        if total > MAX_PAYLOAD:
            raise MessageError("chunk batch exceeds MAX_PAYLOAD; split it")
    return b"".join(parts)


def decode_chunk_batch(payload: bytes, offset: int = 0) -> Tuple[List[Tuple[Fingerprint, bytes]], int]:
    count, offset = _take_u32(payload, offset)
    chunks: List[Tuple[Fingerprint, bytes]] = []
    for _ in range(count):
        fp, offset = _take(payload, offset, FINGERPRINT_SIZE)
        length, offset = _take_u32(payload, offset)
        data, offset = _take(payload, offset, length)
        chunks.append((fp, data))
    return chunks, offset


def encode_bitmap(decisions: Sequence[bool]) -> bytes:
    out = bytearray(_U32.pack(len(decisions)))
    out.extend(b"\x00" * ((len(decisions) + 7) // 8))
    for i, wanted in enumerate(decisions):
        if wanted:
            out[4 + i // 8] |= 1 << (i % 8)
    return bytes(out)


def decode_bitmap(payload: bytes, offset: int = 0) -> Tuple[List[bool], int]:
    count, offset = _take_u32(payload, offset)
    blob, offset = _take(payload, offset, (count + 7) // 8)
    return [bool(blob[i // 8] >> (i % 8) & 1) for i in range(count)], offset


# -- composite payloads ----------------------------------------------------------
def encode_file_entry(meta: dict, fps: Sequence[Fingerprint]) -> bytes:
    meta_blob = encode_json(meta)
    return _U32.pack(len(meta_blob)) + meta_blob + encode_fps(fps)


def decode_file_entry(payload: bytes, offset: int = 0) -> Tuple[dict, List[Fingerprint], int]:
    meta_len, offset = _take_u32(payload, offset)
    meta_blob, offset = _take(payload, offset, meta_len)
    meta = decode_json(meta_blob)
    if not isinstance(meta, dict):
        raise MessageError("file entry metadata must be a JSON object")
    fps, offset = decode_fps(payload, offset)
    return meta, fps, offset


def encode_file_entries(entries: Sequence[Tuple[dict, Sequence[Fingerprint]]]) -> bytes:
    parts = [_U32.pack(len(entries))]
    for meta, fps in entries:
        parts.append(encode_file_entry(meta, fps))
    return b"".join(parts)


def encode_index_entries(entries) -> bytes:
    """A ``META_ENTRIES`` body from
    :class:`~repro.director.metadata.FileIndexEntry` objects."""
    return encode_file_entries([
        (
            {
                "path": e.metadata.path,
                "size": e.metadata.size,
                "mode": e.metadata.mode,
                "mtime": e.metadata.mtime,
            },
            e.fingerprints,
        )
        for e in entries
    ])


def decode_file_entries(payload: bytes, offset: int = 0) -> Tuple[List[Tuple[dict, List[Fingerprint]]], int]:
    count, offset = _take_u32(payload, offset)
    out: List[Tuple[dict, List[Fingerprint]]] = []
    for _ in range(count):
        meta, fps, offset = decode_file_entry(payload, offset)
        out.append((meta, fps))
    return out, offset


# -- replication payloads (DESIGN.md §11) ----------------------------------------
def encode_container_image(doc: dict, image: bytes) -> bytes:
    """A container image with its JSON envelope (origin, container ID...).

    Used by ``CONTAINER_PUSH`` requests and ``CONTAINER_IMAGE`` responses:
    ``u32 json_len + envelope JSON + raw container image``.  The envelope
    stays JSON (small, extensible); the image rides as opaque bytes — it
    is already framed and checksummed by the durability layer, so the
    receiver re-verifies it independently of the transport.
    """
    doc_blob = encode_json(doc)
    if _U32.size + len(doc_blob) + len(image) > MAX_PAYLOAD:
        raise MessageError("container image exceeds MAX_PAYLOAD")
    return _U32.pack(len(doc_blob)) + doc_blob + image


def decode_container_image(payload: bytes, offset: int = 0) -> Tuple[dict, bytes]:
    doc_len, offset = _take_u32(payload, offset)
    doc_blob, offset = _take(payload, offset, doc_len)
    doc = decode_json(doc_blob)
    if not isinstance(doc, dict):
        raise MessageError("container envelope must be a JSON object")
    return doc, payload[offset:]
