"""DEBAR: a scalable high-performance de-duplication storage system for
backup and archiving — a faithful Python reproduction of Yang, Jiang, Feng
and Niu (IPDPS 2010 / UNL TR-UNL-CSE-2009-0004).

Quick tour
----------

File-mode backup and restore (the quickstart example)::

    from repro import DebarSystem

    system = DebarSystem()
    job = system.define_job("homedirs", client="host1", dataset=["/data/home"])
    run, stats = system.run_backup(job)
    system.run_dedup2()
    system.restore_run(run, "/restore/here")

Fingerprint-stream mode, multi-server (the paper's own evaluation style)::

    from repro import DebarCluster
    from repro.workloads import SyntheticUniverse

    cluster = DebarCluster(w_bits=4)       # 16 backup servers
    ...

Package map: :mod:`repro.core` (disk index, TPDS), :mod:`repro.chunking`
(Rabin/CDC), :mod:`repro.storage` (containers, repository, LPC),
:mod:`repro.simdisk` (calibrated device cost models), :mod:`repro.baselines`
(DDFS, Venti, Bloom), :mod:`repro.director` / :mod:`repro.client` /
:mod:`repro.server` (the Figure 2 tiers; ``BackupServer`` is the one
engine), :mod:`repro.system` (its facades: ``DebarVault`` on disk,
``DebarSystem`` and each ``DebarCluster`` node simulated),
:mod:`repro.workloads` and :mod:`repro.analysis`.
"""

from repro.core import (
    DiskIndex,
    IndexFullError,
    IndexCache,
    PreliminaryFilter,
    SequentialIndexLookup,
    SequentialIndexUpdate,
    CheckingFile,
    TwoPhaseDeduplicator,
    SyntheticFingerprints,
    fingerprint,
)
from repro.chunking import ContentDefinedChunker, FixedSizeChunker, chunk_bytes
from repro.storage import (
    ChunkRepository,
    Container,
    ContainerManager,
    ChunkLog,
    LocalityPreservedCache,
)
from repro.baselines import BloomFilter, DdfsServer, VentiServer
from repro.director import Director, Dedup2Policy
from repro.client import BackupEngine
from repro.server import BackupServer, BackupServerConfig
from repro.system import DebarSystem, DebarCluster, DdfsSystem

__version__ = "0.1.0"

__all__ = [
    "DiskIndex",
    "IndexFullError",
    "IndexCache",
    "PreliminaryFilter",
    "SequentialIndexLookup",
    "SequentialIndexUpdate",
    "CheckingFile",
    "TwoPhaseDeduplicator",
    "SyntheticFingerprints",
    "fingerprint",
    "ContentDefinedChunker",
    "FixedSizeChunker",
    "chunk_bytes",
    "ChunkRepository",
    "Container",
    "ContainerManager",
    "ChunkLog",
    "LocalityPreservedCache",
    "BloomFilter",
    "DdfsServer",
    "VentiServer",
    "Director",
    "Dedup2Policy",
    "BackupEngine",
    "BackupServer",
    "BackupServerConfig",
    "DebarSystem",
    "DebarCluster",
    "DdfsSystem",
    "__version__",
]
