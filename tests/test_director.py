"""Tests for the director tier."""

import pytest

from repro.core.tpds import Dedup1Stats
from repro.director import Director
from repro.director.metadata import FileIndexEntry, FileMetadata
from tests.conftest import make_fps


def entry(fps, path="/f"):
    return FileIndexEntry(FileMetadata(path, len(fps) * 8192), fps)


class TestJobLifecycle:
    def test_define_and_lookup(self):
        d = Director()
        job = d.define_job("nightly", "host1", ["/data"], schedule="daily at 2.00am")
        assert d.job_by_name("nightly") is job
        with pytest.raises(KeyError):
            d.job_by_name("nope")

    def test_complete_run_builds_chain(self):
        d = Director()
        job = d.define_job("j", "c", [])
        server = d.assign_backup(job)
        run = d.begin_run(job, timestamp=1.0, server=server)
        stats = Dedup1Stats(logical_bytes=40960, logical_chunks=5, transferred_bytes=8192)
        d.complete_run(run, [entry(make_fps(5))], stats)
        assert d.chain(job).latest() is run
        assert d.metadata.fingerprints_for_run(run.run_id) == make_fps(5)
        assert (run.logical_bytes, run.transferred_bytes, run.chunk_count) == (
            40960, 8192, 5
        )

    def test_assign_unregistered_job_rejected(self):
        d = Director()
        from repro.director.jobs import JobObject

        with pytest.raises(KeyError):
            d.assign_backup(JobObject("ghost", "c", []))


class TestFilteringFingerprints:
    def test_first_run_has_no_filter(self):
        d = Director()
        job = d.define_job("j", "c", [])
        assert d.filtering_fingerprints(job) is None

    def test_previous_run_filters_next(self):
        # Section 5.1: Job_x(t_{n-1}) filters Job_x(t_n).
        d = Director()
        job = d.define_job("j", "c", [])
        fps1 = make_fps(10)
        run1 = d.begin_run(job, 1.0, d.assign_backup(job))
        d.complete_run(run1, [entry(fps1)], Dedup1Stats())
        assert d.filtering_fingerprints(job) == fps1
        fps2 = make_fps(10, start=100)
        run2 = d.begin_run(job, 2.0, d.assign_backup(job))
        d.complete_run(run2, [entry(fps2)], Dedup1Stats())
        assert d.filtering_fingerprints(job) == fps2

    def test_chains_are_per_job(self):
        d = Director()
        a = d.define_job("a", "c", [])
        b = d.define_job("b", "c", [])
        run = d.begin_run(a, 1.0, d.assign_backup(a))
        d.complete_run(run, [entry(make_fps(3))], Dedup1Stats())
        assert d.filtering_fingerprints(b) is None


class TestDedup2Control:
    def test_policy_consulted(self):
        from repro.director.scheduler import Dedup2Policy

        d = Director(policy=Dedup2Policy(undetermined_threshold=5))
        assert not d.should_run_dedup2([4], [0])
        assert d.should_run_dedup2([5], [0])

    def test_record_dedup2(self):
        d = Director()
        d.record_dedup2()
        d.record_dedup2()
        assert d.dedup2_runs == 2
