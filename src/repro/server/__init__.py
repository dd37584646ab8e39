"""Backup servers: one engine (TPDS, dedup-1 sessions, Chunk Store) under
every facade."""

from repro.server.chunk_store import ChunkStore
from repro.server.backup_server import BackupServer, BackupServerConfig, stream_file

__all__ = [
    "ChunkStore",
    "BackupServer",
    "BackupServerConfig",
    "stream_file",
]
