"""The DEBAR director: job objects, scheduling, metadata (Section 3.1)."""

from repro.director.jobs import JobObject, JobRun, JobChain, Schedule
from repro.director.metadata import FileMetadata, FileIndexEntry, MetadataManager, MetadataStore
from repro.director.scheduler import JobScheduler, Dedup2Policy
from repro.director.director import Director

__all__ = [
    "JobObject",
    "JobRun",
    "JobChain",
    "Schedule",
    "FileMetadata",
    "FileIndexEntry",
    "MetadataManager",
    "MetadataStore",
    "JobScheduler",
    "Dedup2Policy",
    "Director",
]
