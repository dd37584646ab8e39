"""CRC32C, its combine, and the two properties "checksum once" rests on.

* the primitive: known answers, ``crc32c_combine`` equal to the direct
  checksum (and usable backwards, to split one out);
* byte identity: combining changes *how* a frame CRC is obtained, never
  its value — frames, containers and index hash to what the parent
  commit wrote (``tests/image_scenario.py``);
* single pass: one ``crc32c`` walk per newly stored payload byte between
  ``DebarVault.backup`` entry and return, none for a duplicate run;
* the crash path: records reloaded from ``chunk.log`` carry CRCs split
  out of their verified frames, damaged frames stay out of containers,
  and a flip in RAM after the append no longer gets a matching CRC.
"""

import dataclasses
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit.faults import POST_SIL, InjectedCrash, inject
from repro.durability.crc import crc32c, crc32c_combine
from repro.durability.framing import (
    FRAME_OVERHEAD,
    frame_record,
    scan_frames,
    superblock_size,
)
from repro.durability.fsshim import FaultRule, FaultyFs, flip_byte_on_disk
from repro.durability.recovery import RecoveryManager
from repro.durability.scrubber import Scrubber
from repro.net.client import RemoteBackupClient
from repro.net.server import serve_vault
from repro.storage.chunk_log import _LOG_RECORD, PersistentChunkLog
from repro.system import DebarVault
from tests.crc_counting import counting_crc32c
from tests.image_scenario import drive

#: Written by the parent commit (3dca428) for the history in
#: tests/image_scenario.py; regenerate as that module's docstring says.
PARENT_IMAGES = {
    "chunk_log_mid_run": "76bbebe514b03eedfc129f716f0934de007b7cd81e89a348d82b1383d0c5ccaf",
    "chunk_log_bytes": 120507,
    "containers": "d480e9f006e42ab18ce90acc2845659a59ceb06d448ae56a5f9668316505e77d",
    "container_count": 12,
    "containers_rewritten": 2,
    "live_chunks_copied": 7,
    "index": "1bd2495dab64746147375390a2069de5f6af505f091167000de72fe66a1f0e97",
    "last_run_id": 5,
}

FIXED = bytes(range(64))


class TestKnownAnswers:
    def test_check_value(self):
        assert crc32c(b"123456789") == 0xE3069283

    @pytest.mark.parametrize(
        "data, expected",
        [  # RFC 3720 appendix B.4
            (b"", 0),
            (bytes(32), 0x8A9136AA),
            (b"\xff" * 32, 0x62A8AB43),
            (bytes(range(32)), 0x46DD794E),
            (bytes(range(31, -1, -1)), 0x113FDB5C),
        ],
    )
    def test_iscsi_vectors(self, data, expected):
        assert crc32c(data) == expected

    def test_running_value_continues_a_checksum(self):
        assert crc32c(FIXED[20:], crc32c(FIXED[:20])) == crc32c(FIXED)


class TestCombine:
    @pytest.mark.parametrize("split", range(len(FIXED) + 1))
    def test_every_split_of_a_fixed_string(self, split):
        a, b = FIXED[:split], FIXED[split:]
        assert crc32c_combine(crc32c(a), crc32c(b), len(b)) == crc32c(FIXED)

    def test_empty_second_part_is_identity(self):
        assert crc32c_combine(0xDEADBEEF, crc32c(b""), 0) == 0xDEADBEEF

    @pytest.mark.parametrize("len_b", [1, 2 << 10, 64 << 10, 1 << 20])
    def test_lengths(self, len_b):
        rng = random.Random(len_b)
        a, b = rng.randbytes(25), rng.randbytes(len_b)
        assert crc32c_combine(crc32c(a), crc32c(b), len_b) == crc32c(a + b)

    @given(st.binary(max_size=300), st.binary(max_size=300))
    def test_equals_the_direct_checksum(self, a, b):
        assert crc32c_combine(crc32c(a), crc32c(b), len(b)) == crc32c(a + b)

    @given(st.binary(max_size=200), st.binary(max_size=200), st.binary(max_size=200))
    def test_associative(self, a, b, c):
        ca, cb, cc = crc32c(a), crc32c(b), crc32c(c)
        left = crc32c_combine(crc32c_combine(ca, cb, len(b)), cc, len(c))
        right = crc32c_combine(ca, crc32c_combine(cb, cc, len(c)), len(b) + len(c))
        assert left == right == crc32c(a + b + c)

    @given(st.binary(max_size=300), st.binary(max_size=300))
    def test_splits_the_second_part_back_out(self, a, b):
        # XOR is its own inverse: the same call recovers crc(b) from crc(a + b).
        assert crc32c_combine(crc32c(a), crc32c(a + b), len(b)) == crc32c(b)


def parent_frame(fp, data):
    """The chunk-log frame as the parent built it: one pass over
    header + payload, no combine."""
    return frame_record(_LOG_RECORD.pack(fp, len(data), 1) + data)


class TestByteIdentity:
    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=20, max_size=20), st.binary(max_size=4096))
    def test_appended_frame_equals_the_parents(self, tmp_path_factory, fp, data):
        path = tmp_path_factory.mktemp("log") / "chunk.log"
        log = PersistentChunkLog(path)
        log.append(fp, data=data)
        assert path.read_bytes()[superblock_size(0):] == parent_frame(fp, data)
        (record,) = log.replay()
        assert record.crc == crc32c(data)

    def test_virtual_group_frame_is_unchanged(self, tmp_path):
        log = PersistentChunkLog(tmp_path / "chunk.log")
        log.append(b"\x07" * 20, size=8192)
        frame = (tmp_path / "chunk.log").read_bytes()[superblock_size(0):]
        assert frame == frame_record(_LOG_RECORD.pack(b"\x07" * 20, 8192, 0))
        assert next(log.replay()).crc is None

    def test_a_parent_written_log_reopens_with_its_crcs(self, tmp_path):
        rng = random.Random(9)
        groups = [(rng.randbytes(20), rng.randbytes(rng.randrange(0, 9000))) for _ in range(12)]
        first = PersistentChunkLog(tmp_path / "chunk.log")  # writes the superblock
        with open(first.path, "ab") as f:
            for fp, data in groups:
                f.write(parent_frame(fp, data))
        with counting_crc32c() as calls:
            reopened = PersistentChunkLog(tmp_path / "chunk.log")
        records = list(reopened.replay())
        assert [(r.fingerprint, r.data) for r in records] == groups
        assert [r.crc for r in records] == [crc32c(data) for _, data in groups]
        # Recovery is single-pass too: the scan verifies each frame once,
        # the reload only checksums the 25-byte record headers.
        assert set(calls.lengths("repro.storage.chunk_log")) == {_LOG_RECORD.size}
        assert not reopened.corrupt_records

    def test_scan_exposes_the_stored_frame_crc(self):
        blob = frame_record(b"abc") + frame_record(b"defg", crc=0x1234)
        good, bad = scan_frames(blob).records
        assert (good.crc, good.ok) == (crc32c(b"abc"), True)
        assert (bad.crc, bad.ok) == (0x1234, False)

    def test_pinned_history_hashes_to_the_parents_images(self, tmp_path):
        assert drive(tmp_path / "vault", tmp_path / "src") == PARENT_IMAGES


def write_source(root, n_files=3, size=150_000, seed=0):
    root.mkdir()
    for i in range(n_files):
        (root / f"f{i}.bin").write_bytes(random.Random(seed + i).randbytes(size))
    return root


def stored_sizes(vault):
    """``{fingerprint: payload size}`` over every container of the vault."""
    return {
        rec.fingerprint: rec.size
        for cid in vault.repository.container_ids()
        for rec in vault.repository.fetch(cid).records
    }


def assert_single_pass(calls, vault, fingerprints, new_bytes):
    """Every new payload byte went through ``crc32c`` exactly once."""
    sizes = stored_sizes(vault)
    payloads = [sizes[fp] for fp in set(fingerprints)]
    chunks = len(payloads)
    assert sum(payloads) == new_bytes
    # The chunk log: one walk of each payload plus its 25-byte header.
    log_calls = sorted(calls.lengths("repro.storage.chunk_log"))
    assert log_calls == sorted(payloads + [_LOG_RECORD.size] * chunks)
    # The container: its 32-byte-per-record metadata section, no payload.
    assert sum(calls.lengths("repro.storage.container")) == 32 * chunks
    payload_side = sum(
        sum(calls.lengths(f"repro.{m}"))
        for m in ("storage.chunk_log", "storage.container", "durability.framing")
    )
    assert new_bytes <= payload_side <= new_bytes + 64 * chunks  # the parent: 2 x


class TestSinglePass:
    def test_fresh_backup_checksums_each_new_byte_once(self, tmp_path):
        src = write_source(tmp_path / "src")
        with DebarVault(tmp_path / "vault", container_bytes=256 * 1024) as vault:
            with counting_crc32c() as calls:
                run = vault.backup("docs", [src])
            fps = [fp for f in run.files for fp in f.fingerprints]
            assert_single_pass(calls, vault, fps, run.logical_bytes)
            assert Scrubber(vault).run().clean

    def test_duplicate_backup_checksums_no_payload(self, tmp_path):
        src = write_source(tmp_path / "src")
        with DebarVault(tmp_path / "vault") as vault:
            vault.backup("docs", [src])
            with counting_crc32c() as calls:
                vault.backup("docs", [src])
            assert calls.lengths("repro.storage.chunk_log") == []
            assert calls.lengths("repro.storage.container") == []
            assert calls.total_bytes() < 256  # superblocks of the emptied log

    def test_backup_through_the_daemon_is_single_pass_too(self, tmp_path):
        src = write_source(tmp_path / "src", n_files=2)
        vault = DebarVault(tmp_path / "vault", container_bytes=256 * 1024)
        server = serve_vault(vault)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            with RemoteBackupClient(host, port) as client, counting_crc32c() as calls:
                summary = client.backup("docs", [str(src)])
            fps = [fp for f in vault.run_entries(summary.run_id) for fp in f.fingerprints]
            assert_single_pass(calls, vault, fps, summary.logical_bytes)
        finally:
            server.shutdown()
            server.server_close()
            vault.close()



def killed_before_dedup2(tmp_path, src):
    """A vault whose backup died between dedup-1 and dedup-2: every new
    chunk is in ``chunk.log``, none in a container.  Returns the log's
    records as the dead process held them."""
    vault = DebarVault(tmp_path / "vault", container_bytes=256 * 1024)
    with inject(vault.tpds, POST_SIL), pytest.raises(InjectedCrash):
        vault.backup("docs", [src])
    records = list(vault.tpds.chunk_log.replay())
    vault.close()
    return records


def container_images(root):
    return [p.read_bytes() for p in sorted((root / "containers").glob("*.ctr"))]


class TestCrashPath:
    def test_replay_after_a_kill_is_single_pass_and_byte_identical(self, tmp_path):
        src = write_source(tmp_path / "src")
        with DebarVault(tmp_path / "ref", container_bytes=256 * 1024) as ref:
            ref.backup("docs", [src])
        records = killed_before_dedup2(tmp_path, src)
        with counting_crc32c() as calls:
            reopened = DebarVault(tmp_path / "vault")
        assert reopened.recovery_report.replayed
        # Reloaded records carry the CRC split out of their verified frames ...
        assert set(calls.lengths("repro.storage.chunk_log")) == {_LOG_RECORD.size}
        # ... so sealing their containers checksums metadata only.
        assert sum(calls.lengths("repro.storage.container")) == 32 * len(records)
        assert container_images(tmp_path / "vault") == container_images(tmp_path / "ref")
        assert Scrubber(reopened).run().clean
        reopened.close()

    @pytest.mark.parametrize("where", ["on disk", "on read"])
    def test_flipped_log_payload_never_reaches_a_container(self, tmp_path, where):
        src = write_source(tmp_path / "src", n_files=1)
        records = killed_before_dedup2(tmp_path, src)
        victim = records[1]
        offset = (  # the middle of the second frame's chunk payload
            superblock_size(0)
            + FRAME_OVERHEAD + _LOG_RECORD.size + records[0].size
            + FRAME_OVERHEAD + _LOG_RECORD.size + victim.size // 2
        )
        fs = None
        if where == "on disk":
            flip_byte_on_disk(tmp_path / "vault" / "chunk.log", offset, 0x10)
        else:
            fs = FaultyFs([FaultRule(
                op="read_file", kind="bit_flip", path_contains="chunk.log",
                flip_offset=offset, flip_mask=0x10,
            )])
        reopened = DebarVault(tmp_path / "vault", fs=fs, auto_recover=False)
        log = reopened.tpds.chunk_log
        assert len(log.corrupt_records) == 1  # kept for the scrubber
        assert victim.fingerprint not in {r.fingerprint for r in log.replay()}
        findings = Scrubber(reopened).run().findings
        assert [f.artifact for f in findings] == ["chunk log"]
        assert RecoveryManager(reopened).run().replayed
        stored = set(stored_sizes(reopened))
        assert victim.fingerprint not in stored
        assert stored == {r.fingerprint for r in records} - {victim.fingerprint}
        reopened.close()

    def test_rewrite_intact_reframes_from_the_carried_crc(self, tmp_path):
        rng = random.Random(4)
        groups = [(rng.randbytes(20), rng.randbytes(3000 + i)) for i in range(4)]
        path = tmp_path / "chunk.log"
        log = PersistentChunkLog(path)
        for fp, data in groups:
            log.append(fp, data=data)
        log.append(b"\x09" * 20, size=512)  # a virtual group rides along
        flip_byte_on_disk(
            path, superblock_size(0) + FRAME_OVERHEAD + _LOG_RECORD.size + 100, 0xFF
        )
        damaged = PersistentChunkLog(path)
        with counting_crc32c() as calls:
            assert damaged.rewrite_intact() == 1
        assert set(calls.lengths("repro.storage.chunk_log")) == {_LOG_RECORD.size}
        assert path.read_bytes()[superblock_size(0):] == b"".join(
            [parent_frame(fp, data) for fp, data in groups[1:]]
            + [frame_record(_LOG_RECORD.pack(b"\x09" * 20, 512, 0))]
        )
        again = PersistentChunkLog(path)
        assert not again.corrupt_records
        assert [(r.fingerprint, r.data, r.crc) for r in again.replay()] == [
            (fp, data, crc32c(data)) for fp, data in groups[1:]
        ] + [(b"\x09" * 20, None, None)]

    def test_a_flip_in_ram_after_the_append_is_caught_by_scrub(self, tmp_path):
        # The container stores the CRC the bytes had when they were first
        # written, not one recomputed at seal time from whatever memory
        # holds by then (which blessed the flip: scrub CLEAN).
        src = write_source(tmp_path / "src", n_files=1)
        vault = DebarVault(tmp_path / "vault", container_bytes=256 * 1024)
        flipped = []

        def flip_one_record(point):
            if point == POST_SIL:
                held = vault.tpds.chunk_log._records
                bad = bytearray(held[2].data)
                bad[len(bad) // 2] ^= 0x01
                held[2] = dataclasses.replace(held[2], data=bytes(bad))
                flipped.append(held[2].fingerprint)

        vault.tpds.fault_hook = flip_one_record
        vault.backup("docs", [src])
        vault.close()
        with DebarVault(tmp_path / "vault") as reopened:
            findings = Scrubber(reopened).run().findings
        assert [f.fingerprint for f in findings] == flipped
        assert "payload CRC mismatch" in findings[0].detail
