"""The director: the dedicated control centre of a DEBAR system (Section 3.1).

Supervises backup/restore/verify through job objects, maintains job chains
and metadata, assigns jobs to backup servers, and decides when the whole
cluster runs dedup-2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.fingerprint import Fingerprint
from repro.director.jobs import JobChain, JobObject, JobRun, Schedule
from repro.director.metadata import FileIndexEntry, MetadataManager, MetadataStore
from repro.director.scheduler import Dedup2Policy, JobScheduler

if TYPE_CHECKING:
    from repro.core.tpds import Dedup1Stats


class Director:
    """Global management: jobs, chains, metadata, scheduling, dedup-2."""

    def __init__(
        self,
        n_servers: int = 1,
        policy: Optional[Dedup2Policy] = None,
        metadata_store: Optional[MetadataStore] = None,
    ) -> None:
        self.scheduler = JobScheduler(n_servers)
        self.policy = policy if policy is not None else Dedup2Policy()
        self.metadata = MetadataManager(store=metadata_store)
        self._jobs: Dict[int, JobObject] = {}
        self._chains: Dict[int, JobChain] = {}
        self.dedup2_runs = 0

    # -- job lifecycle ----------------------------------------------------------
    def define_job(
        self,
        name: str,
        client: str,
        dataset: Sequence[str],
        schedule: str = "daily at 1.05am",
    ) -> JobObject:
        """Create and register a job object (the User Interface path)."""
        job = JobObject(name, client, list(dataset), Schedule.parse(schedule))
        self._jobs[job.job_id] = job
        self._chains[job.job_id] = JobChain(job)
        return job

    def job_by_name(self, name: str) -> JobObject:
        for job in self._jobs.values():
            if job.name == name:
                return job
        raise KeyError(f"no job named {name!r}")

    def chain(self, job: JobObject) -> JobChain:
        return self._chains[job.job_id]

    def find_run(self, run_id: int) -> Optional[JobRun]:
        """Locate a completed run record by ID across all chains."""
        for chain in self._chains.values():
            for run in chain.runs:
                if run.run_id == run_id:
                    return run
        return None

    def assign_backup(self, job: JobObject, expected_bytes: int = 0) -> int:
        """Schedule a run of ``job``: returns the backup server to use."""
        if job.job_id not in self._jobs:
            raise KeyError(f"job {job.name!r} is not registered")
        return self.scheduler.assign(job, expected_bytes)

    def begin_run(self, job: JobObject, timestamp: float, server: int) -> JobRun:
        """Open a run record at backup start."""
        return JobRun(job, timestamp, server=server)

    def complete_run(
        self, run: JobRun, file_entries: Sequence[FileIndexEntry], stats: "Dedup1Stats"
    ) -> None:
        """Close a run: take its volumes from the dedup-1 session's stats,
        record it on the chain and persist its metadata."""
        run.logical_bytes = stats.logical_bytes
        run.transferred_bytes = stats.transferred_bytes
        run.chunk_count = stats.logical_chunks
        self._chains[run.job.job_id].record(run)
        self.metadata.record_run_files(run.run_id, file_entries)

    # -- preliminary-filter support -------------------------------------------------
    def filtering_fingerprints(self, job: JobObject) -> Optional[List[Fingerprint]]:
        """The previous run's fingerprints, used to seed the preliminary
        filter for the next run of this job (Section 5.1); ``None`` on the
        first run of a chain."""
        previous = self._chains[job.job_id].latest()
        if previous is None:
            return None
        return self.metadata.fingerprints_for_run(previous.run_id)

    # -- dedup-2 control ---------------------------------------------------------------
    def should_run_dedup2(
        self,
        undetermined_counts: Sequence[int],
        log_bytes: Sequence[int],
    ) -> bool:
        """Ask the policy whether to initiate a cluster-wide dedup-2 now."""
        return self.policy.should_run(undetermined_counts, log_bytes)

    def record_dedup2(self) -> None:
        self.dedup2_runs += 1
