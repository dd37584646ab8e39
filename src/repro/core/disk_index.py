"""The DEBAR disk index (Section 4).

The index is a hash table of ``2^n`` fixed-size buckets stored contiguously
on disk.  A fingerprint's first ``n`` bits are its bucket number, which gives
the index its load-bearing properties:

* *uniform fingerprint distribution* — SHA-1 uniformity spreads entries
  evenly, so buckets can be filled to high utilization before overflow;
* *number-ordered fingerprint distribution* — bucket order equals numeric
  fingerprint order, which is what lets SIL/SIU stream the index
  sequentially instead of probing it randomly;
* *simple capacity scaling* — ``2^n -> 2^(n+1)`` by copying each bucket's
  entries into the two buckets addressed by one more prefix bit;
* *simple performance scaling* — splitting into ``2^w`` parts by the first
  ``w`` bits, one part per backup server.

Buckets are built from 512-byte disk blocks, each holding up to 20 entries
of 25 bytes (20-byte fingerprint + 5-byte container ID).  When a bucket
overflows, the extra entry goes to a randomly chosen adjacent bucket; a
bucket finding itself and *both* neighbours full raises
:class:`IndexFullError`, the signal the paper uses to trigger capacity
scaling (with the index then ~80-95 % utilized, Table 2).
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.fingerprint import (
    FINGERPRINT_SIZE,
    Fingerprint,
    validate_container_id,
    validate_fingerprint,
)
from repro.durability.crc import crc32c
from repro.durability.errors import CorruptionError
from repro.storage.blockstore import (
    BlockStore,
    FileBlockStore,
    MemoryBlockStore,
    SparseMemoryBlockStore,
)
from repro.util import bit_prefix

#: On-disk size of one index entry: fingerprint + 40-bit container ID.
ENTRY_SIZE = FINGERPRINT_SIZE + 5

#: Size of the disk blocks buckets are built from.
DISK_BLOCK_SIZE = 512

#: Entries per 512-byte disk block (the paper's "up to 20 entries").
ENTRIES_PER_BLOCK = DISK_BLOCK_SIZE // ENTRY_SIZE

#: Bucket header: a little-endian uint32 entry count.
_HEADER = struct.Struct("<I")

#: Checksummed buckets end in this trailer: magic + CRC32C of the rest.
BUCKET_MAGIC = 0x44424B54  # "DBKT"
_TRAILER = struct.Struct("<II")


class IndexFullError(Exception):
    """Raised when an insert finds a bucket and both its neighbours full.

    Per Section 4.1 this event means the index is, with high probability,
    past ~80 % utilization (for 8 KB buckets) and must be enlarged with
    :meth:`DiskIndex.scale_capacity`.
    """

    def __init__(self, bucket: int, utilization: float) -> None:
        super().__init__(
            f"bucket {bucket} and both neighbours full at utilization {utilization:.1%}"
        )
        self.bucket = bucket
        self.utilization = utilization


@dataclass
class Bucket:
    """A parsed index bucket: an ordered list of (fingerprint, container ID)."""

    number: int
    entries: List[Tuple[Fingerprint, int]]
    capacity: int

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def find(self, fp: Fingerprint) -> Optional[int]:
        """Linear search, as in the paper's in-memory bucket scan."""
        for entry_fp, cid in self.entries:
            if entry_fp == fp:
                return cid
        return None


def pack_bucket(
    entries: List[Tuple[Fingerprint, int]], slot_size: int, checksum: bool = False
) -> bytes:
    """Serialise a bucket into its fixed-size on-disk slot.

    With ``checksum`` the slot's last 8 bytes become a ``BUCKET_MAGIC`` +
    CRC32C trailer over the rest.  For block-multiple slot sizes the entry
    capacity is unaffected: ``b`` 512-byte blocks hold ``20b`` entries in
    ``4 + 500b`` bytes, leaving at least 12 bytes of padding.
    """
    body = slot_size - _TRAILER.size if checksum else slot_size
    if _HEADER.size + len(entries) * ENTRY_SIZE > body:
        raise ValueError(f"{len(entries)} entries do not fit a {slot_size}-byte slot")
    parts = [_HEADER.pack(len(entries))]
    for fp, cid in entries:
        parts.append(fp)
        parts.append(cid.to_bytes(5, "little"))
    blob = b"".join(parts)
    blob += b"\x00" * (body - len(blob))
    if checksum:
        blob += _TRAILER.pack(BUCKET_MAGIC, crc32c(blob))
    return blob


def unpack_bucket(
    blob: bytes, checksummed: bool = False
) -> List[Tuple[Fingerprint, int]]:
    """Parse a fixed-size bucket slot back into its entry list.

    In a ``checksummed`` index (every file-backed one) the trailer is
    mandatory: a slot is either all zeros — never written, an empty
    bucket — or ends in ``BUCKET_MAGIC`` plus a CRC32C matching the rest.
    Anything else raises :class:`CorruptionError`; in particular a slot
    whose magic was damaged is *not* read as an unchecksummed one, which
    would switch verification off for exactly the buckets that need it.
    Memory-store indexes carry no trailer and are parsed as they are.
    """
    if checksummed:
        magic, crc = _TRAILER.unpack_from(blob, len(blob) - _TRAILER.size)
        if magic != BUCKET_MAGIC:
            if blob.count(0) == len(blob):
                return []
            raise CorruptionError("trailer missing", artifact="index")
        if crc != crc32c(blob[: -_TRAILER.size]):
            raise CorruptionError("CRC mismatch", artifact="index")
    (count,) = _HEADER.unpack_from(blob, 0)
    entries: List[Tuple[Fingerprint, int]] = []
    off = _HEADER.size
    for _ in range(count):
        fp = blob[off : off + FINGERPRINT_SIZE]
        cid = int.from_bytes(blob[off + FINGERPRINT_SIZE : off + ENTRY_SIZE], "little")
        entries.append((fp, cid))
        off += ENTRY_SIZE
    return entries


class DiskIndex:
    """The on-disk fingerprint index.

    Parameters
    ----------
    n_bits:
        The index has ``2^n_bits`` buckets.
    bucket_bytes:
        Bucket slot size; must be a multiple of the 512-byte disk block.
        The paper selects 8 KB (320 entries) for >80 % utilization.
    store:
        Backing block store.  Defaults to an in-memory store; pass a
        :class:`~repro.storage.blockstore.FileBlockStore` for a real on-disk
        index.
    prefix_bits, prefix_value:
        For a *part* of a performance-scaled index: this part only accepts
        fingerprints whose first ``prefix_bits`` bits equal ``prefix_value``,
        and buckets are addressed by the following ``n_bits`` bits
        (Section 4.1, "simple performance scaling").
    seed:
        Seed for the random adjacent-bucket choice on overflow.
    checksummed:
        Write buckets with CRC32C trailers and verify them on read.
        Defaults to on for file-backed stores and off for memory stores.
    """

    def __init__(
        self,
        n_bits: int,
        bucket_bytes: int = 8 * 1024,
        store: Optional[BlockStore] = None,
        prefix_bits: int = 0,
        prefix_value: int = 0,
        seed: int = 0,
        checksummed: Optional[bool] = None,
    ) -> None:
        if n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        if bucket_bytes % DISK_BLOCK_SIZE != 0 or bucket_bytes <= 0:
            raise ValueError("bucket_bytes must be a positive multiple of 512")
        if prefix_bits < 0:
            raise ValueError("prefix_bits must be non-negative")
        if prefix_bits + n_bits > FINGERPRINT_SIZE * 8:
            raise ValueError("prefix_bits + n_bits exceeds fingerprint width")
        if not 0 <= prefix_value < (1 << prefix_bits if prefix_bits else 1):
            raise ValueError("prefix_value out of range for prefix_bits")
        self.n_bits = n_bits
        self.bucket_bytes = bucket_bytes
        self.bucket_capacity = (bucket_bytes // DISK_BLOCK_SIZE) * ENTRIES_PER_BLOCK
        self.n_buckets = 1 << n_bits
        self.prefix_bits = prefix_bits
        self.prefix_value = prefix_value
        self._rng = random.Random(seed)
        self._seed = seed
        self._entry_count = 0
        size = self.n_buckets * bucket_bytes
        created_here = store is None
        if store is None:
            store = MemoryBlockStore(size)
        elif store.size < size:
            raise ValueError(f"block store too small: {store.size} < {size}")
        self._store = store
        # Buckets carry CRC trailers on real disks by default; memory-backed
        # indexes (simulation, tests) keep the cheap unchecksummed layout.
        self.checksummed = (
            checksummed if checksummed is not None else isinstance(store, FileBlockStore)
        )
        # Cache of per-bucket entry counts so fullness checks do not hit the
        # store; rebuilt from disk when attached to a possibly non-empty
        # store (a freshly created store is all zeros by construction).
        self._counts: List[int] = [0] * self.n_buckets
        known_empty = created_here or (
            isinstance(store, SparseMemoryBlockStore) and store.resident_bytes == 0
        )
        if not known_empty:
            self._load_counts()

    # -- construction helpers ------------------------------------------------
    def _load_counts(self) -> None:
        total = 0
        for k in range(self.n_buckets):
            blob = self._store.read(k * self.bucket_bytes, _HEADER.size)
            (count,) = _HEADER.unpack(blob)
            # A rotted header cannot claim more entries than a bucket holds;
            # clamping keeps the cache sane until scrub repairs the bucket.
            self._counts[k] = min(count, self.bucket_capacity)
            total += self._counts[k]
        self._entry_count = total

    # -- geometry --------------------------------------------------------------
    @property
    def store(self) -> BlockStore:
        """The backing block store (read-only handle for audits/persistence)."""
        return self._store

    @property
    def size_bytes(self) -> int:
        """Total on-disk size of the index."""
        return self.n_buckets * self.bucket_bytes

    @property
    def capacity_entries(self) -> int:
        """Maximum entries if every bucket were exactly full."""
        return self.n_buckets * self.bucket_capacity

    @property
    def entry_count(self) -> int:
        """Entries currently stored."""
        return self._entry_count

    @property
    def utilization(self) -> float:
        """Fraction of entry slots occupied."""
        return self._entry_count / self.capacity_entries

    def bucket_number(self, fp: Fingerprint) -> int:
        """Home bucket of a fingerprint within this index (or index part)."""
        full = bit_prefix(fp, self.prefix_bits + self.n_bits)
        if self.prefix_bits:
            if full >> self.n_bits != self.prefix_value:
                raise ValueError(
                    f"fingerprint prefix {full >> self.n_bits:#x} does not belong "
                    f"to index part {self.prefix_value:#x}"
                )
            return full & (self.n_buckets - 1)
        return full

    def owns(self, fp: Fingerprint) -> bool:
        """True iff this index (part) is responsible for ``fp``."""
        if not self.prefix_bits:
            return True
        return bit_prefix(fp, self.prefix_bits) == self.prefix_value

    # -- bucket I/O -------------------------------------------------------------
    def read_bucket(self, k: int) -> Bucket:
        """Read and parse one bucket."""
        self._check_bucket_number(k)
        blob = self._store.read(k * self.bucket_bytes, self.bucket_bytes)
        return Bucket(k, self._unpack(k, blob), self.bucket_capacity)

    def _unpack(self, k: int, blob: bytes) -> List[Tuple[Fingerprint, int]]:
        try:
            return unpack_bucket(blob, self.checksummed)
        except CorruptionError as exc:
            raise CorruptionError(
                f"index bucket {k} {exc}",
                artifact="index", offset=k * self.bucket_bytes,
            ) from None

    def on_disk_count(self, k: int) -> int:
        """Bucket ``k``'s entry count as recorded in its on-disk header.

        Bypasses the in-memory count cache — the auditor compares the two.
        """
        self._check_bucket_number(k)
        (count,) = _HEADER.unpack(self._store.read(k * self.bucket_bytes, _HEADER.size))
        return count

    def write_bucket(self, bucket: Bucket) -> None:
        """Serialise and write one bucket back."""
        self._check_bucket_number(bucket.number)
        if len(bucket.entries) > self.bucket_capacity:
            raise ValueError("bucket over capacity")
        self._store.write(
            bucket.number * self.bucket_bytes,
            pack_bucket(bucket.entries, self.bucket_bytes, checksum=self.checksummed),
        )
        self._entry_count += len(bucket.entries) - self._counts[bucket.number]
        self._counts[bucket.number] = len(bucket.entries)

    def read_bucket_range(self, start: int, count: int) -> List[Bucket]:
        """Sequentially read ``count`` consecutive buckets (the SIL primitive).

        One call models one large sequential disk read of
        ``count * bucket_bytes`` bytes; cost accounting is the caller's job.
        """
        self._check_bucket_number(start)
        if count < 0 or start + count > self.n_buckets:
            raise ValueError("bucket range out of bounds")
        blob = self._store.read(start * self.bucket_bytes, count * self.bucket_bytes)
        out = []
        for i in range(count):
            slot = blob[i * self.bucket_bytes : (i + 1) * self.bucket_bytes]
            out.append(Bucket(start + i, self._unpack(start + i, slot), self.bucket_capacity))
        return out

    def write_bucket_range(self, buckets: List[Bucket]) -> None:
        """Sequentially write consecutive buckets back (the SIU primitive)."""
        if not buckets:
            return
        start = buckets[0].number
        for i, b in enumerate(buckets):
            if b.number != start + i:
                raise ValueError("buckets must be consecutive")
            if len(b.entries) > self.bucket_capacity:
                raise ValueError("bucket over capacity")
        blob = b"".join(
            pack_bucket(b.entries, self.bucket_bytes, checksum=self.checksummed)
            for b in buckets
        )
        self._store.write(start * self.bucket_bytes, blob)
        for b in buckets:
            self._entry_count += len(b.entries) - self._counts[b.number]
            self._counts[b.number] = len(b.entries)

    def _check_bucket_number(self, k: int) -> None:
        if not 0 <= k < self.n_buckets:
            raise ValueError(f"bucket {k} out of range [0, {self.n_buckets})")

    def neighbours(self, k: int) -> Tuple[int, ...]:
        """The adjacent buckets, wrapping at the ends.

        Distinct buckets only: with ``n_bits == 1`` the two wrap-around
        "adjacent" buckets are the same bucket, and treating it as two
        candidates would double-probe lookups and double-count it as an
        overflow target.
        """
        left, right = (k - 1) % self.n_buckets, (k + 1) % self.n_buckets
        if left == right:
            return (left,)
        return left, right

    # -- point operations --------------------------------------------------------
    def insert(self, fp: Fingerprint, container_id: int) -> int:
        """Insert one mapping; return the bucket that received it.

        Follows Section 4.1: the entry goes to its home bucket; if the home
        bucket is full, to a randomly selected adjacent bucket; if both
        neighbours are also full, :class:`IndexFullError` signals that the
        index needs capacity scaling.  Callers are responsible for not
        inserting a fingerprint twice (SIL guarantees this in DEBAR).
        """
        fp = validate_fingerprint(fp)
        validate_container_id(container_id)
        home = self.bucket_number(fp)
        target = self._placement_bucket(home)
        bucket = self.read_bucket(target)
        bucket.entries.append((fp, container_id))
        self.write_bucket(bucket)
        return target

    def _placement_bucket(self, home: int) -> int:
        """Pick the bucket an entry homed at ``home`` will actually occupy."""
        if self._counts[home] < self.bucket_capacity:
            return home
        candidates = list(self.neighbours(home))
        self._rng.shuffle(candidates)
        for k in candidates:
            if self._counts[k] < self.bucket_capacity:
                return k
        raise IndexFullError(home, self.utilization)

    def lookup(self, fp: Fingerprint) -> Optional[int]:
        """Find a fingerprint's container ID, or ``None``.

        Checks the home bucket first; because entries can overflow, a miss
        in a *full* home bucket also probes the two neighbours (a second
        random I/O in the paper's cost analysis — rare, since the fraction
        of full buckets stays below ~0.3 %, Table 2).
        """
        cid, _ = self.lookup_with_probes(fp)
        return cid

    def lookup_with_probes(self, fp: Fingerprint) -> Tuple[Optional[int], int]:
        """Like :meth:`lookup` but also report how many random disk probes
        the lookup required (for baseline cost accounting)."""
        fp = validate_fingerprint(fp)
        home = self.bucket_number(fp)
        bucket = self.read_bucket(home)
        cid = bucket.find(fp)
        if cid is not None:
            return cid, 1
        if not bucket.full:
            # An overflowed copy can only exist if the home bucket is full.
            return None, 1
        probes = 1
        for k in self.neighbours(home):
            probes += 1
            cid = self.read_bucket(k).find(fp)
            if cid is not None:
                return cid, probes
        return None, probes

    def delete(self, fp: Fingerprint) -> bool:
        """Remove a fingerprint's entry; True if it was present.

        Not part of the paper's write path (backup streams only add), but
        required by retention/garbage collection: when a chunk's last
        reference disappears and its container is reclaimed, the mapping
        must go too.  Checks the home bucket and, if that is full (so an
        overflow could have happened), the two neighbours.

        Lookup relies on the invariant *an entry overflows only while its
        home bucket is full*; deletion is the one operation that can break
        it, so after removing from a previously full bucket, one entry
        homed there is pulled back from a neighbour if any had overflowed.
        """
        fp = validate_fingerprint(fp)
        home = self.bucket_number(fp)
        for k in (home, *self.neighbours(home)):
            bucket = self.read_bucket(k)
            was_full = bucket.full
            for i, (entry_fp, _) in enumerate(bucket.entries):
                if entry_fp == fp:
                    del bucket.entries[i]
                    self.write_bucket(bucket)
                    if was_full:
                        self._pull_back_overflow(k)
                    return True
            if k == home and not was_full:
                return False
        return False

    def _pull_back_overflow(self, k: int) -> None:
        """Re-home one entry that overflowed out of bucket ``k``, if any.

        Called when ``k`` transitions full -> not-full; restores the
        overflow invariant either by leaving no stranded entries or by
        making ``k`` full again (covering any that remain).

        Pulling an entry out of a *full* neighbour transitions that
        neighbour full -> not-full in turn, which would strand anything
        that had overflowed out of *it* (two buckets from home, where
        ``lookup`` never probes).  The pull-back therefore cascades: every
        bucket this drains below capacity gets its own pull-back pass.
        """
        for neighbour in self.neighbours(k):
            bucket = self.read_bucket(neighbour)
            for i, (entry_fp, cid) in enumerate(bucket.entries):
                if self.bucket_number(entry_fp) == k:
                    was_full = bucket.full
                    del bucket.entries[i]
                    self.write_bucket(bucket)
                    target = self.read_bucket(k)
                    target.entries.append((entry_fp, cid))
                    self.write_bucket(target)
                    if was_full:
                        self._pull_back_overflow(neighbour)
                    return

    def update(self, fp: Fingerprint, container_id: int) -> bool:
        """Re-point an existing entry at a new container; True if found."""
        fp = validate_fingerprint(fp)
        validate_container_id(container_id)
        home = self.bucket_number(fp)
        for k in (home, *self.neighbours(home)):
            bucket = self.read_bucket(k)
            for i, (entry_fp, _) in enumerate(bucket.entries):
                if entry_fp == fp:
                    bucket.entries[i] = (fp, container_id)
                    self.write_bucket(bucket)
                    return True
            if k == home and not bucket.full:
                return False
        return False

    # -- whole-index operations ----------------------------------------------------
    def iter_entries(self) -> Iterator[Tuple[Fingerprint, int]]:
        """Iterate all (fingerprint, container ID) entries in bucket order."""
        for k in range(self.n_buckets):
            yield from self.read_bucket(k).entries

    def full_bucket_fraction(self) -> float:
        """Fraction of buckets at capacity (the paper's rho statistic)."""
        full = sum(1 for c in self._counts if c >= self.bucket_capacity)
        return full / self.n_buckets

    def scale_capacity(
        self,
        store: Optional[BlockStore] = None,
        checkpoint: Optional[Callable[[int], None]] = None,
    ) -> "DiskIndex":
        """Capacity scaling: build the ``2^(n+1)``-bucket successor index.

        Entries from old bucket ``k`` land in new buckets ``2k`` and
        ``2k+1`` according to their first ``n+1`` bits; entries that had
        overflowed into ``k`` from a neighbour are re-homed by their own
        bits (Section 4.1).  Re-inserting every entry by its own home bucket
        implements both rules at once.

        With no explicit ``store`` the successor keeps the old index's
        backing kind: a file-backed index is rebuilt in a sibling temporary
        file that atomically replaces the original once every entry has
        migrated, so the index never silently degrades to memory (and a
        crash mid-scale leaves the original file untouched).  ``checkpoint``
        (if given) is called with each source bucket number after its
        entries migrate — the fault-injection hook.
        """
        from repro.telemetry.registry import get_registry
        from repro.telemetry.tracing import trace_span

        registry = get_registry()
        successor = self._successor_store() if store is None else store
        part = str(self.prefix_value) if self.prefix_bits else "0"
        with trace_span("index.scale_capacity") as span:
            span.annotate(from_n_bits=self.n_bits, to_n_bits=self.n_bits + 1, part=part)
            span.set_io(bytes_in=self.size_bytes, bytes_out=2 * self.size_bytes)
            new = self._scale_into(successor, store, checkpoint)
        registry.counter(
            "index.capacity_scalings", "capacity-scaling events (bucket count doubled)"
        ).labels(part=part).inc()
        registry.gauge(
            "index.n_bits", "current bucket-count exponent per index part"
        ).labels(part=part).set(new.n_bits)
        registry.gauge(
            "index.entries", "entries registered per index part"
        ).labels(part=part).set(new.entry_count)
        return new

    def _scale_into(
        self,
        successor: Optional[BlockStore],
        store: Optional[BlockStore],
        checkpoint: Optional[Callable[[int], None]],
    ) -> "DiskIndex":
        try:
            new = DiskIndex(
                self.n_bits + 1,
                bucket_bytes=self.bucket_bytes,
                store=successor,
                prefix_bits=self.prefix_bits,
                prefix_value=self.prefix_value,
                seed=self._seed,
                checksummed=self.checksummed if store is None else None,
            )
            for k in range(self.n_buckets):
                for fp, cid in self.read_bucket(k).entries:
                    new.insert(fp, cid)
                if checkpoint is not None:
                    checkpoint(k)
        except BaseException:
            if store is None and isinstance(successor, FileBlockStore):
                successor.unlink()
            raise
        if store is None and isinstance(successor, FileBlockStore):
            # Replace the original file in one rename and reopen in place.
            original = self._store
            target = original.path
            original.close()
            successor.commit_to(target)
        return new

    def _successor_store(self) -> Optional[BlockStore]:
        """A fresh ``2^(n+1)``-bucket store of the same backing kind.

        ``None`` (for plain memory stores) defers to the default
        :class:`MemoryBlockStore` allocation in ``__init__``.
        """
        size = 2 * self.n_buckets * self.bucket_bytes
        if isinstance(self._store, FileBlockStore):
            tmp = self._store.path.with_name(self._store.path.name + ".scale")
            if tmp.exists():
                tmp.unlink()  # stale temp from an interrupted scaling
            return FileBlockStore(tmp, size)
        if isinstance(self._store, SparseMemoryBlockStore):
            return SparseMemoryBlockStore(size)
        return None

    def split(self, w_bits: int) -> List["DiskIndex"]:
        """Performance scaling: divide into ``2^w`` parts by prefix.

        Part ``k`` receives the entries whose first ``w`` bits (beyond any
        existing part prefix) equal ``k`` and addresses its buckets by the
        remaining ``n - w`` bits, ready to be placed on backup server ``k``
        (Section 4.1 / Figure 5).
        """
        if w_bits < 1 or w_bits >= self.n_bits:
            raise ValueError("w_bits must be in [1, n_bits)")
        parts = [
            DiskIndex(
                self.n_bits - w_bits,
                bucket_bytes=self.bucket_bytes,
                prefix_bits=self.prefix_bits + w_bits,
                prefix_value=(self.prefix_value << w_bits) | k,
                seed=self._seed + k + 1,
            )
            for k in range(1 << w_bits)
        ]
        for fp, cid in self.iter_entries():
            part = bit_prefix(fp, self.prefix_bits + w_bits) & ((1 << w_bits) - 1)
            parts[part].insert(fp, cid)
        return parts

    @classmethod
    def rebuild_from_entries(
        cls,
        entries: Iterable[Tuple[Fingerprint, int]],
        n_bits: int,
        bucket_bytes: int = 8 * 1024,
        **kwargs,
    ) -> "DiskIndex":
        """Disaster recovery: reconstruct an index from repository metadata.

        This is the paper's "high-cost reconstruction method ... used to
        recover a corrupted index": the caller scans the chunk repository's
        container metadata sections and feeds every (fingerprint, container)
        pair here.
        """
        index = cls(n_bits, bucket_bytes=bucket_bytes, **kwargs)
        for fp, cid in entries:
            index.insert(fp, cid)
        return index

    def snapshot(self) -> Dict[int, List[Tuple[Fingerprint, int]]]:
        """All non-empty buckets as a dict (test/debug helper)."""
        out: Dict[int, List[Tuple[Fingerprint, int]]] = {}
        for k in range(self.n_buckets):
            if self._counts[k]:
                out[k] = self.read_bucket(k).entries
        return out

    def __contains__(self, fp: Fingerprint) -> bool:
        return self.lookup(fp) is not None

    def __len__(self) -> int:
        return self._entry_count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        part = (
            f", part {self.prefix_value:#x}/{self.prefix_bits}b" if self.prefix_bits else ""
        )
        return (
            f"DiskIndex(2^{self.n_bits} x {self.bucket_bytes}B buckets, "
            f"{self._entry_count} entries, {self.utilization:.1%} utilized{part})"
        )
