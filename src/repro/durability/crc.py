"""CRC32C (Castagnoli) — the record checksum of the durability layer.

CRC32C is the framing checksum used by iSCSI, ext4 and Btrfs; unlike
``zlib.crc32`` (CRC-32/ISO-HDLC) it has hardware support on modern CPUs
and better burst-error detection for storage payloads.  CPython ships no
CRC32C, so this module implements the reflected polynomial ``0x1EDC6F41``
with a slicing-by-8 table walk (8 bytes per loop iteration); if a native
``crc32c`` extension module happens to be importable it is preferred.

The checksum value is the standard one: ``crc32c(b"123456789") ==
0xE3069283``.

:func:`crc32c_combine` joins the checksums of two adjacent byte strings
without touching the bytes again::

    crc32c_combine(crc32c(a), crc32c(b), len(b)) == crc32c(a + b)

A CRC is linear over GF(2): appending ``len(b)`` bytes multiplies the
first string's checksum by ``x^(8*len(b)) mod P``, and the second
string's checksum is XOR-ed in (zlib's ``crc32_combine``, on finalised
values).  Because XOR is its own inverse the same call also *splits*:
``crc32c_combine(crc32c(a), crc32c(a + b), len(b)) == crc32c(b)``.  This
is what lets a chunk payload be checksummed once, where it first becomes
durable, and still sit inside frames that cover a header as well.

:func:`crc32c_many` checksums a *batch* of payloads in one vectorised
pass (the lane kernel below); batches under :data:`LANE_CUTOFF` bytes
take the per-call walk, payload by payload.  Both return the same values.
"""

from __future__ import annotations

import functools
import itertools
from typing import List, Sequence, Union

import numpy as np

Buffer = Union[bytes, bytearray, memoryview]

_POLY = 0x82F63B78  # reflected 0x1EDC6F41


def _build_tables() -> List[List[int]]:
    base = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ (_POLY if crc & 1 else 0)
        base.append(crc)
    tables = [base]
    for _ in range(7):
        prev = tables[-1]
        tables.append([base[v & 0xFF] ^ (v >> 8) for v in prev])
    return tables


_T0, _T1, _T2, _T3, _T4, _T5, _T6, _T7 = _build_tables()


def _crc32c_py(data: bytes, value: int = 0) -> int:
    """Pure-python slicing-by-8 CRC32C."""
    crc = (value & 0xFFFFFFFF) ^ 0xFFFFFFFF
    mv = memoryview(data).cast("B") if not isinstance(data, bytes) else data
    n = len(mv)
    i = 0
    end8 = n - (n & 7)
    while i < end8:
        crc ^= mv[i] | (mv[i + 1] << 8) | (mv[i + 2] << 16) | (mv[i + 3] << 24)
        crc = (
            _T7[crc & 0xFF]
            ^ _T6[(crc >> 8) & 0xFF]
            ^ _T5[(crc >> 16) & 0xFF]
            ^ _T4[(crc >> 24) & 0xFF]
            ^ _T3[mv[i + 4]]
            ^ _T2[mv[i + 5]]
            ^ _T1[mv[i + 6]]
            ^ _T0[mv[i + 7]]
        )
        i += 8
    while i < n:
        crc = (crc >> 8) ^ _T0[(crc ^ mv[i]) & 0xFF]
        i += 1
    return crc ^ 0xFFFFFFFF


def _multmodp(a: int, b: int) -> int:
    """``a * b mod P`` over GF(2), both in the reflected bit order."""
    p = 0
    m = 1 << 31
    while True:
        if a & m:
            p ^= b
            if not a & (m - 1):
                return p
        m >>= 1
        b = (b >> 1) ^ _POLY if b & 1 else b >> 1


def _build_x2n() -> List[int]:
    """``x^(2^k) mod P`` for k = 0..31 (x has order 2^32 - 1, so k wraps)."""
    table = [1 << 30]  # x^1
    for _ in range(31):
        table.append(_multmodp(table[-1], table[-1]))
    return table


_X2N = _build_x2n()


def crc32c_combine(crc_a: int, crc_b: int, len_b: int) -> int:
    """CRC32C of ``a + b`` from ``crc32c(a)``, ``crc32c(b)`` and ``len(b)``.

    Also the inverse: given ``crc32c(a)`` and ``crc32c(a + b)`` it returns
    ``crc32c(b)``.  Costs a few dozen 32-step multiplies whatever the length.
    """
    shift = 1 << 31  # x^0
    k = 3            # len_b counts bytes: start at x^(2^3)
    while len_b:
        if len_b & 1:
            shift = _multmodp(_X2N[k & 31], shift)
        len_b >>= 1
        k += 1
    return _multmodp(shift, crc_a & 0xFFFFFFFF) ^ (crc_b & 0xFFFFFFFF)


# -- the lane kernel ---------------------------------------------------------
#
# A CRC with a zero initial register and no final XOR ("raw") is linear
# over GF(2), so a batch is checksummed as many short, independent lanes:
#
# 1. every payload is cut into LANE_STRIPE-byte stripes, its ragged first
#    stripe left-padded with zeros (under a zero register leading zeros
#    change nothing), and all stripes of the batch are walked at once,
#    one little-endian word per step (slicing-by-4 over _T3.._T0);
# 2. the init register 0xFFFFFFFF of the payload is carried through its
#    ``len`` bytes by XOR-ing ``0xFFFFFFFF * x^(8 * (LANE_STRIPE - pad))``
#    into its first stripe, before the fold below moves that stripe the
#    rest of the way;
# 3. a stripe with ``d`` stripes after it in its payload is shifted by
#    ``x^(8 * LANE_STRIPE * d)``, one multiply table per binary digit of
#    ``d``, and the stripes of each payload are XOR-reduced; XOR-ing the
#    final 0xFFFFFFFF gives the standard CRC32C.
#
# The tables are built on the first batch, never at import.  The per-payload
# scalars stay Python ints and the per-stripe math stays uint32: every
# further NumPy loop the kernel ran would page in code that stays resident.

#: Bytes per lane: each payload is walked as ceil(len / LANE_STRIPE) lanes.
LANE_STRIPE = 64

#: A batch with fewer payload bytes than this takes the per-call walk; the
#: kernel's fixed cost (~0.2 ms) only pays for itself above ~2 KiB.
LANE_CUTOFF = 2048

#: Payload bytes per kernel pass, which bounds its scratch arrays (a larger
#: single payload is a pass of its own).
LANE_BATCH = 128 * 1024

_LANE_WORDS = LANE_STRIPE // 4
_ZERO_PAD = bytes(LANE_STRIPE)


@functools.lru_cache(maxsize=None)
def _lane_tables():
    """The slicing-by-4 step as ``uint32[4, 256]`` (row k takes byte k of
    the register), and the init term of a payload by its first stripe's
    zero padding."""
    walk = np.array([_T3, _T2, _T1, _T0], dtype=np.uint32)
    init = np.zeros(LANE_STRIPE, dtype=np.uint32)
    reg = 0xFFFFFFFF
    for n in range(1, LANE_STRIPE + 1):  # the register through n zero bytes
        reg = (reg >> 8) ^ _T0[reg & 0xFF]
        init[LANE_STRIPE - n] = reg
    return walk, init


@functools.lru_cache(maxsize=None)
def _shift_table(level: int) -> np.ndarray:
    """Multiply by ``x^(8 * LANE_STRIPE * 2^level) mod P`` as ``uint32[4, 256]``,
    from the 32 products of the constant with ``x^0 .. x^31``: each entry
    is an earlier entry XOR one basis product."""
    k = (LANE_STRIPE * 8).bit_length() - 1 + level  # x^(2^k)
    basis = [_X2N[k & 31]]  # times x^0 (bit 31 in the reflected order)
    for _ in range(31):  # times x^1 .. x^31 (bits 30 .. 0)
        b = basis[-1]
        basis.append((b >> 1) ^ _POLY if b & 1 else b >> 1)
    by_bit = basis[::-1]  # the product for bit j of the register
    rows = []
    for byte in range(4):  # row k takes byte k: bits 8k .. 8k+7
        row = [0] * 256
        for v in range(1, 256):
            low = v & -v
            row[v] = row[v ^ low] ^ by_bit[8 * byte + low.bit_length() - 1]
        rows.append(row)
    return np.array(rows, dtype=np.uint32)


def _lane_step(table: np.ndarray, reg: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """Apply a ``uint32[4, 256]`` byte-table operator to every register,
    into ``out`` (``tmp`` is scratch of the same length)."""
    b = reg.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)
    np.take(table[0], b[:, 0], out=out)
    for k in range(1, 4):
        np.take(table[k], b[:, k], out=tmp)
        out ^= tmp


def _lane_pass(payloads: Sequence[Buffer]) -> List[int]:
    """CRC32C of every (non-empty) payload in one vectorised pass."""
    walk, init = _lane_tables()
    pads = [-len(p) % LANE_STRIPE for p in payloads]
    stripes = [(len(p) + pad) // LANE_STRIPE for p, pad in zip(payloads, pads)]
    # Every table the fold needs is built before the scratch below: a
    # table allocated above it would pin the freed scratch in the heap.
    shifts = [_shift_table(level) for level in range((max(stripes) - 1).bit_length())]
    parts = []
    for payload, pad in zip(payloads, pads):
        parts.append(_ZERO_PAD[:pad])
        parts.append(payload)
    words = np.frombuffer(b"".join(parts), "<u4").reshape(-1, _LANE_WORDS)
    n = len(words)
    reg = np.zeros(n, np.uint32)
    out, tmp, held = np.empty((3, n), np.uint32)
    for w in range(_LANE_WORDS):
        reg ^= words[:, w]
        _lane_step(walk, reg, out, tmp)
        reg, out = out, reg
    first = list(itertools.accumulate(stripes, initial=0))[:-1]
    reg[first] ^= init[pads]
    # Stripes still to follow in the payload, per stripe.
    after = np.repeat(np.array([f + s - 1 for f, s in zip(first, stripes)], np.uint32), stripes)
    after -= np.arange(n, dtype=np.uint32)
    for level, shift in enumerate(shifts):
        lanes = np.flatnonzero(after & np.uint32(1 << level))
        m = len(lanes)
        np.take(reg, lanes, out=held[:m])
        _lane_step(shift, held[:m], out[:m], tmp[:m])
        reg[lanes] = out[:m]
    crcs = np.bitwise_xor.reduceat(reg, first) ^ np.uint32(0xFFFFFFFF)
    return crcs.tolist()


def _crc32c_many_py(payloads: Sequence[Buffer]) -> List[int]:
    """CRC32C of each payload: lane passes of at most ``LANE_BATCH`` bytes,
    the per-call walk for empty payloads and batches under ``LANE_CUTOFF``."""
    out: List[int] = []
    group: List[Buffer] = []
    group_bytes = 0

    def flush() -> None:
        if group_bytes < LANE_CUTOFF:
            out.extend(_crc32c_py(p) for p in group)
            return
        full = [p for p in group if len(p)]
        crcs = iter(_lane_pass(full))
        out.extend(next(crcs) if len(p) else 0 for p in group)

    for payload in payloads:
        size = len(payload)
        if group and group_bytes + size > LANE_BATCH:
            flush()
            group, group_bytes = [], 0
        group.append(payload)
        group_bytes += size
    if group:
        flush()
    return out


try:  # pragma: no cover - depends on the host environment
    from crc32c import crc32c as _crc32c_native  # type: ignore

    def crc32c(data: bytes, value: int = 0) -> int:
        """CRC32C of ``data`` (native extension)."""
        return _crc32c_native(data, value)

    def crc32c_many(payloads: Sequence[Buffer]) -> List[int]:
        """CRC32C of each payload (native extension)."""
        return [_crc32c_native(p) for p in payloads]

except ImportError:
    crc32c = _crc32c_py
    crc32c_many = _crc32c_many_py
