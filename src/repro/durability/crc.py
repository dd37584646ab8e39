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
"""

from __future__ import annotations

from typing import List

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


try:  # pragma: no cover - depends on the host environment
    from crc32c import crc32c as _crc32c_native  # type: ignore

    def crc32c(data: bytes, value: int = 0) -> int:
        """CRC32C of ``data`` (native extension)."""
        return _crc32c_native(data, value)

except ImportError:
    crc32c = _crc32c_py
