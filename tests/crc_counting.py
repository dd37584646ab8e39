"""Count what goes through ``crc32c`` and ``crc32c_many``, per calling module.

Modules bind the functions with ``from repro.durability.crc import ...``,
so a wrapper on the defining module alone would see nothing: like the
ledger's tracer (``benchmarks/e2e/trace.py``) this rebinds every copy.  A
batch counts as one call per payload, so a payload checksummed in a
``crc32c_many`` batch looks the same as one walked by ``crc32c``.
"""

import sys
from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro.durability import crc as crc_module


class CrcCalls:
    """Lengths of every checksummed input, keyed by the calling module."""

    def __init__(self) -> None:
        self.by_module: Dict[str, List[int]] = {}

    def lengths(self, module: str) -> List[int]:
        return self.by_module.get(module, [])

    def total_bytes(self) -> int:
        return sum(sum(v) for v in self.by_module.values())


def _counting(raw, seen: List[int]):
    if raw is _RAW[0]:
        def counted(data, value=0):
            seen.append(len(data))
            return raw(data, value)
    else:
        def counted(payloads):
            payloads = list(payloads)
            seen.extend(len(p) for p in payloads)
            return raw(payloads)
    return counted


_RAW = (crc_module.crc32c, crc_module.crc32c_many)


@contextmanager
def counting_crc32c() -> Iterator[CrcCalls]:
    calls = CrcCalls()
    rebound = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if mod is crc_module and key.startswith("_"):
                continue  # the batch path's own per-call walk: counted once
            for raw in _RAW:
                if value is raw:
                    seen = calls.by_module.setdefault(name, [])
                    setattr(mod, key, _counting(raw, seen))
                    rebound.append((mod, key, raw))
    try:
        yield calls
    finally:
        for mod, key, raw in rebound:
            setattr(mod, key, raw)
