"""Storage substrates: block stores, containers, chunk repository, chunk log, LPC."""

from repro.storage.blockstore import BlockStore, FileBlockStore, MemoryBlockStore
from repro.storage.container import (
    Container,
    ContainerManager,
    ContainerWriter,
    CONTAINER_SIZE,
)
from repro.storage.repository import ChunkRepository, StorageNode
from repro.storage.chunk_log import ChunkLog
from repro.storage.lpc import LocalityPreservedCache
from repro.storage.defrag import DefragmentationManager, DefragReport

__all__ = [
    "BlockStore",
    "MemoryBlockStore",
    "FileBlockStore",
    "Container",
    "ContainerManager",
    "ContainerWriter",
    "CONTAINER_SIZE",
    "ChunkRepository",
    "StorageNode",
    "ChunkLog",
    "LocalityPreservedCache",
    "DefragmentationManager",
    "DefragReport",
]
