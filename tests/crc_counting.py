"""Count what goes through ``crc32c``, per calling module.

Modules bind the function with ``from repro.durability.crc import crc32c``,
so a wrapper on the defining module alone would see nothing: like the
ledger's tracer (``benchmarks/e2e/trace.py``) this rebinds every copy.
"""

import sys
from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro.durability import crc as crc_module


class CrcCalls:
    """Lengths of every ``crc32c`` input, keyed by the calling module."""

    def __init__(self) -> None:
        self.by_module: Dict[str, List[int]] = {}

    def lengths(self, module: str) -> List[int]:
        return self.by_module.get(module, [])

    def total_bytes(self) -> int:
        return sum(sum(v) for v in self.by_module.values())


@contextmanager
def counting_crc32c() -> Iterator[CrcCalls]:
    raw = crc_module.crc32c
    calls = CrcCalls()
    rebound = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is raw:
                seen = calls.by_module.setdefault(name, [])

                def counted(data, value=0, _seen=seen):
                    _seen.append(len(data))
                    return raw(data, value)

                setattr(mod, key, counted)
                rebound.append((mod, key))
    try:
        yield calls
    finally:
        for mod, key in rebound:
            setattr(mod, key, raw)
