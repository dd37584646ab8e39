"""Rabin fingerprints over a sliding window (RABIN81, BRODER93).

A Rabin fingerprint treats a byte string as a polynomial over GF(2) and
reduces it modulo a fixed irreducible polynomial ``P`` of degree ``k``.  Its
two properties of interest here:

* it is *rolling* — the fingerprint of window ``[j+1, j+w]`` is computable
  from that of ``[j, j+w-1]`` in O(1); and
* it is *linear over GF(2)* — the fingerprint of a window equals the XOR of
  the (reduced) contributions of its individual bytes.

The linearity gives two interchangeable implementations: an incremental
rolling one (:class:`RabinFingerprint`, the byte-at-a-time ground truth) and
a vectorised one (:class:`WindowScanner`) that XORs 48 per-position table
gathers with NumPy.  Linearity holds bit by bit, so the low ``b`` bits of a
fingerprint are the XOR of the table entries' low ``b`` bits: the scanner
keeps tables and accumulators only as wide as its caller's mask (``uint16``
for the paper's 13-bit anchor test) and works through the input in fixed
blocks with a 47-byte overlap, so its scratch is O(block) whatever the input
size.  :func:`window_fingerprints` is the same kernel at the full 53 bits.
Both implementations produce bit-identical values and are cross-checked in
the test suite.

We use LBFS's degree-53 irreducible polynomial and its 48-byte window.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

#: LBFS's irreducible polynomial of degree 53 (0x3DA3358B4DC173 | x^53).
RABIN_POLY = (1 << 53) | 0x3DA3358B4DC173

#: Degree of the modulus polynomial.
RABIN_DEGREE = 53

#: The paper's window: "all overlapping fixed-sized (usually 48 bytes)
#: substrings of a file" (Section 3.2).
RABIN_WINDOW_SIZE = 48

_MASK = (1 << RABIN_DEGREE) - 1


def _poly_mod(value: int, poly: int = RABIN_POLY, degree: int = RABIN_DEGREE) -> int:
    """Reduce a GF(2) polynomial (as an int) modulo ``poly``."""
    while value.bit_length() > degree:
        value ^= poly << (value.bit_length() - 1 - degree)
    return value


# T_append[hi]: reduction of the 8 bits that overflow past degree k when the
# fingerprint is multiplied by x^8.
_APPEND_TABLE = [_poly_mod(hi << RABIN_DEGREE) for hi in range(256)]


def _position_tables() -> np.ndarray:
    """``tables[i][b] = (b << 8*(w-1-i)) mod P``: what byte value ``b`` at
    window position ``i`` contributes to the window's fingerprint.

    Row ``w-1`` (the newest byte) is the identity; each older position is the
    next one multiplied by x^8 — the same shift/reduce step as
    :meth:`RabinFingerprint.roll`, applied to all 256 entries at once.
    """
    append = np.array(_APPEND_TABLE, dtype=np.uint64)
    tables = np.empty((RABIN_WINDOW_SIZE, 256), dtype=np.uint64)
    row = np.arange(256, dtype=np.uint64)
    for i in range(RABIN_WINDOW_SIZE - 1, -1, -1):
        tables[i] = row
        overflow = (row >> np.uint64(RABIN_DEGREE - 8)).astype(np.intp)
        row = ((row << np.uint64(8)) & np.uint64(_MASK)) ^ append[overflow]
    return tables


_POSITION_TABLES = _position_tables()

# T_pop[b]: contribution of the window's oldest byte, which sits at
# x^(8*(w-1)) when the window is full.
_POP_TABLE = _POSITION_TABLES[0].tolist()


class RabinFingerprint:
    """Incremental rolling Rabin fingerprint over a fixed-size window."""

    __slots__ = ("window_size", "_value", "_window", "_pos", "_filled")

    def __init__(self, window_size: int = RABIN_WINDOW_SIZE) -> None:
        if window_size != RABIN_WINDOW_SIZE:
            # The pop table is precomputed for the standard window; other
            # sizes would need their own table, which nothing here requires.
            raise ValueError(f"only the {RABIN_WINDOW_SIZE}-byte window is supported")
        self.window_size = window_size
        self._value = 0
        self._window = bytearray(window_size)
        self._pos = 0
        self._filled = 0

    @property
    def value(self) -> int:
        """Current fingerprint of the bytes in the window."""
        return self._value

    @property
    def primed(self) -> bool:
        """True once a full window has been consumed."""
        return self._filled >= self.window_size

    def reset(self) -> None:
        """Forget all state (used at each chunk boundary by the chunker)."""
        self._value = 0
        self._pos = 0
        self._filled = 0

    def roll(self, byte: int) -> int:
        """Slide the window one byte forward; return the new fingerprint."""
        value = self._value
        if self._filled >= self.window_size:
            value ^= _POP_TABLE[self._window[self._pos]]
        else:
            self._filled += 1
        # Multiply by x^8, reduce the overflow, add the new byte.
        value = ((value << 8) & _MASK) ^ byte ^ _APPEND_TABLE[value >> (RABIN_DEGREE - 8)]
        self._window[self._pos] = byte
        self._pos = (self._pos + 1) % self.window_size
        self._value = value
        return value

    def update(self, data: bytes) -> int:
        """Roll over every byte of ``data``; return the final fingerprint."""
        for b in data:
            self.roll(b)
        return self._value


#: Bytes fingerprinted per kernel pass.  Large enough to amortise the 96
#: NumPy calls of a pass, small enough that the scratch stays in cache.
SCAN_BLOCK = 32 * 1024

_UNSIGNED = (np.uint8, np.uint16, np.uint32, np.uint64)


@functools.lru_cache(maxsize=len(_UNSIGNED))
def _narrow_tables(dtype: type) -> Tuple[np.ndarray, ...]:
    """The position tables truncated to ``dtype``: astype keeps the low bits,
    which by linearity are all a caller testing only low bits needs."""
    return tuple(_POSITION_TABLES.astype(dtype, copy=False))


class WindowScanner:
    """Fingerprints of every window of a byte stream, one block at a time.

    ``bits`` is how many low-order fingerprint bits the caller will read; the
    scanner works in the narrowest unsigned dtype that holds them.  Blocks
    are consecutive pieces of one stream: the last 47 bytes of each are
    carried over, so windows straddling a seam come out exactly as if the
    stream had been fingerprinted in one piece.
    """

    def __init__(self, bits: int = RABIN_DEGREE) -> None:
        if not 1 <= bits <= RABIN_DEGREE:
            raise ValueError("bits out of range")
        self.dtype = next(d for d in _UNSIGNED if bits <= 8 * np.dtype(d).itemsize)
        self._tables = _narrow_tables(self.dtype)
        # The previous block's last 47 bytes (zeros before the stream
        # starts) followed by the current block.
        self._bytes = np.zeros(SCAN_BLOCK + RABIN_WINDOW_SIZE - 1, dtype=np.uint8)
        self._acc = np.empty(SCAN_BLOCK, dtype=self.dtype)
        self._tmp = np.empty(SCAN_BLOCK, dtype=self.dtype)

    def scan(self, block: np.ndarray) -> np.ndarray:
        """Fingerprint the next ``len(block) <= SCAN_BLOCK`` bytes.

        Returns ``f`` with ``f[j]`` the fingerprint (truncated to the dtype)
        of the 48-byte window *ending* at ``block[j]``, identical to what
        :class:`RabinFingerprint` reports after rolling ``block[j]``.  The
        first 47 values of a stream cover a window padded with zero bytes.
        The array is scratch, overwritten by the next call.
        """
        w = RABIN_WINDOW_SIZE
        m = len(block)
        stream, tables = self._bytes, self._tables
        stream[w - 1 : w - 1 + m] = block
        acc, tmp = self._acc[:m], self._tmp[:m]
        # Bytes are always valid indices, and any mode but "raise" lets take
        # write straight into ``out`` instead of a checked temporary.
        np.take(tables[0], stream[:m], out=acc, mode="clip")
        for i in range(1, w):
            np.take(tables[i], stream[i : i + m], out=tmp, mode="clip")
            np.bitwise_xor(acc, tmp, out=acc)
        stream[: w - 1] = stream[m : m + w - 1]
        return acc


def window_fingerprints(
    data: bytes, out: Optional[np.ndarray] = None, bits: int = RABIN_DEGREE
) -> np.ndarray:
    """Vectorised Rabin fingerprints of every full window in ``data``.

    Returns an array ``f`` of length ``len(data) - w + 1`` where ``f[j]`` is
    the fingerprint of ``data[j : j + w]`` — identical to what
    :class:`RabinFingerprint` reports after rolling past ``data[j + w - 1]``.
    With ``bits`` below the full degree the values are truncated to the
    narrowest unsigned dtype holding that many bits (the anchoring kernel);
    the default is the full-width reference the tests compare against.
    """
    w = RABIN_WINDOW_SIZE
    n = len(data) - w + 1
    scanner = WindowScanner(bits)
    if n <= 0:
        return np.empty(0, dtype=scanner.dtype)
    if out is None:
        out = np.empty(n, dtype=scanner.dtype)
    elif len(out) < n or out.dtype != scanner.dtype:
        raise ValueError(f"output buffer must hold {n} {np.dtype(scanner.dtype).name} values")
    else:
        out = out[:n]
    buf = np.frombuffer(data, dtype=np.uint8)
    for start in range(0, len(buf), SCAN_BLOCK):
        fps = scanner.scan(buf[start : start + SCAN_BLOCK])
        # fps[j] is window number start + j - (w - 1); the stream's first
        # w - 1 values are not full windows.
        skip = max(0, w - 1 - start)
        out[start + skip - (w - 1) : start + len(fps) - (w - 1)] = fps[skip:]
    return out
