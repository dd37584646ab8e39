"""CPU cost model for the compute-side of de-duplication.

The paper measured 2.749 million in-memory fingerprint lookups per second
with 320 comparisons each on a 3.0 GHz Xeon (Section 4.2), and notes SHA-1
and Rabin chunking are cheap relative to disk.  These terms matter only when
the I/O terms have been engineered away (which is exactly DEBAR's point), so
we keep them in the model to avoid reporting infinite in-memory throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util import MB


@dataclass(frozen=True)
class CpuModel:
    """Per-operation CPU service times.

    Parameters
    ----------
    fp_search_rate:
        In-memory bucket-search operations per second (paper: 2.749e6 full
        320-comparison bucket searches per second).
    sha1_rate:
        SHA-1 digest throughput in bytes/second.
    chunking_rate:
        CDC (Rabin rolling hash) throughput in bytes/second.
    filter_probe_rate:
        Preliminary-filter / index-cache hash-table probes per second.
    """

    fp_search_rate: float = 2.749e6
    sha1_rate: float = 350.0 * MB
    chunking_rate: float = 400.0 * MB
    filter_probe_rate: float = 5.0e6

    def __post_init__(self) -> None:
        for name in ("fp_search_rate", "sha1_rate", "chunking_rate", "filter_probe_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def fp_search_time(self, n_searches: int) -> float:
        """Time for ``n_searches`` in-memory bucket searches."""
        if n_searches < 0:
            raise ValueError("n_searches must be non-negative")
        return n_searches / self.fp_search_rate

    def sha1_time(self, nbytes: float) -> float:
        """Time to SHA-1 digest ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return nbytes / self.sha1_rate

    def filter_probe_time(self, n_probes: int) -> float:
        """Time for ``n_probes`` preliminary-filter hash probes."""
        if n_probes < 0:
            raise ValueError("n_probes must be non-negative")
        return n_probes / self.filter_probe_rate
