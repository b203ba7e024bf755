"""Tests for simulator checkpoint/restore (``repro.checkpoint``).

The load-bearing contract is digest identity: a run paused at any event
boundary, checkpointed, restored (optionally through disk) and run to
completion must produce a :class:`SimulationResult` whose stable fingerprint
is identical to an uninterrupted run.  Everything else - the envelope
schema, the store's ``(fingerprint, T)`` keying, the engine integration -
exists to make that contract operational, and is tested around it.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointStore,
    SimulatorCheckpoint,
    run_job_checkpointed,
)
from repro.experiments.engine import ExecutionEngine, engine_from_cli
from repro.experiments.spec import SimJob, WorkloadSpec
from repro.perf.suite import tiny_suite
from repro.scenarios.library import aged_device_state
from repro.sim.config import SimulationConfig, stable_fingerprint
from repro.sim.ssd import SSDSimulator
from repro.workloads.synthetic import generate_mixed_workload, SyntheticWorkloadConfig

KB = 1024


def gc_config() -> SimulationConfig:
    """A small, GC-enabled, prefilled device: every run exercises collection."""
    base = SimulationConfig.small()
    return base.with_overrides(
        geometry=base.geometry.scaled(blocks_per_plane=8, pages_per_block=16),
        gc_enabled=True,
        prefill_fraction=0.9,
    )


def overwrite_workload(num_requests: int = 60, seed: int = 7):
    config = gc_config()
    address_space = int(
        config.geometry.total_pages * config.geometry.page_size_bytes * 0.5
    )
    requests = generate_mixed_workload(
        SyntheticWorkloadConfig(
            num_requests=num_requests,
            size_bytes=4 * KB,
            address_space_bytes=address_space,
            read_fraction=0.1,
            randomness=1.0,
            interarrival_ns=2_000,
            seed=seed,
        )
    )
    # Renumber like WorkloadSpec.build: successive builds must be identical
    # traces, independent of the process-global io_id counter.
    for index, io in enumerate(requests):
        io.io_id = index
    return requests


def straight_run():
    simulator = SSDSimulator(gc_config(), "SPK3")
    result = simulator.run(overwrite_workload(), workload_name="straight")
    return simulator, result


class TestPausableRun:
    def test_run_returns_none_when_paused(self):
        simulator = SSDSimulator(gc_config(), "SPK3")
        assert simulator.run(overwrite_workload(), max_events=10) is None
        assert simulator.events.processed >= 10

    def test_run_to_completion_finishes_a_paused_run(self):
        _, expected = straight_run()
        simulator = SSDSimulator(gc_config(), "SPK3")
        assert simulator.run(overwrite_workload(), "straight", max_events=10) is None
        result = simulator.run_to_completion()
        assert stable_fingerprint(result) == stable_fingerprint(expected)

    def test_run_to_completion_requires_an_active_run(self):
        simulator = SSDSimulator(gc_config(), "SPK3")
        with pytest.raises(RuntimeError, match="no run in progress"):
            simulator.run_to_completion()

    def test_run_rejects_overlapping_runs(self):
        simulator = SSDSimulator(gc_config(), "SPK3")
        simulator.run(overwrite_workload(), max_events=10)
        with pytest.raises(RuntimeError, match="in progress"):
            simulator.run(overwrite_workload())

    def test_completed_run_allows_a_fresh_run(self):
        simulator = SSDSimulator(gc_config(), "SPK3")
        simulator.run(overwrite_workload(), max_events=10)
        simulator.run_to_completion()
        # A second run on the same simulator is not part of the determinism
        # contract, but starting one must not raise.
        assert simulator.run(overwrite_workload(num_requests=1)) is not None


class TestDigestIdentity:
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_checkpoint_resume_matches_straight_run(self, fraction):
        reference, expected = straight_run()
        pause_at = max(1, int(reference.events.processed * fraction))
        simulator = SSDSimulator(gc_config(), "SPK3")
        assert simulator.run(overwrite_workload(), "straight", max_events=pause_at) is None
        resumed = SSDSimulator.resume(simulator.checkpoint())
        result = resumed.run_to_completion()
        assert stable_fingerprint(result) == stable_fingerprint(expected)

    def test_round_trip_through_disk(self, tmp_path):
        _, expected = straight_run()
        simulator = SSDSimulator(gc_config(), "SPK3")
        simulator.run(overwrite_workload(), "straight", max_events=50)
        path = simulator.checkpoint().save(tmp_path / "run.ckpt")
        resumed = SSDSimulator.resume(SimulatorCheckpoint.load(path))
        result = resumed.run_to_completion()
        assert stable_fingerprint(result) == stable_fingerprint(expected)

    def test_checkpoint_mid_garbage_collection(self):
        # Pause after GC has demonstrably fired, so the snapshot carries
        # live GC state (victim bookkeeping, relocated pages, backlog).
        reference, expected = straight_run()
        assert reference.gc.stats.invocations > 0
        pause_at = reference.events.processed // 2
        simulator = SSDSimulator(gc_config(), "SPK3")
        simulator.run(overwrite_workload(), "straight", max_events=pause_at)
        assert simulator.gc.stats.invocations > 0
        resumed = SSDSimulator.resume(simulator.checkpoint())
        result = resumed.run_to_completion()
        assert stable_fingerprint(result) == stable_fingerprint(expected)

    def test_checkpoint_of_aged_device(self):
        config = gc_config().with_overrides(
            prefill_fraction=0.0,
            overprovisioning_fraction=0.15,
            device_state=aged_device_state(seed=11),
        )
        workload = overwrite_workload(num_requests=24, seed=11)
        reference = SSDSimulator(config, "SPK3")
        expected = reference.run(list(workload), "aged")
        simulator = SSDSimulator(config, "SPK3")
        simulator.run(list(workload), "aged", max_events=reference.events.processed // 2)
        resumed = SSDSimulator.resume(simulator.checkpoint())
        assert stable_fingerprint(resumed.run_to_completion()) == stable_fingerprint(expected)

    @pytest.mark.parametrize("case_name", [case.name for case in tiny_suite()])
    def test_tiny_suite_checkpointed_runs_match_straight_runs(self, case_name, tmp_path):
        case = {c.name: c for c in tiny_suite()}[case_name]
        store = CheckpointStore(tmp_path / "store")
        for job in case.jobs:
            expected = stable_fingerprint(job.execute())
            checkpointed = run_job_checkpointed(job, store, every_events=40)
            assert stable_fingerprint(checkpointed) == expected


class TestCaptureValidation:
    def test_checkpoint_requires_a_paused_run(self):
        simulator = SSDSimulator(gc_config(), "SPK3")
        with pytest.raises(CheckpointError, match="paused in-progress run"):
            simulator.checkpoint()

    def test_checkpoint_after_completion_rejected(self):
        simulator, _ = straight_run()
        with pytest.raises(CheckpointError, match="paused in-progress run"):
            simulator.checkpoint()

    def test_unschematized_attribute_is_a_loud_error(self):
        simulator = SSDSimulator(gc_config(), "SPK3")
        simulator.run(overwrite_workload(), max_events=10)
        simulator.surprise = 1
        with pytest.raises(CheckpointError, match="surprise"):
            simulator.checkpoint()

    def test_envelope_metadata_matches_the_pause_point(self):
        simulator = SSDSimulator(gc_config(), "SPK3")
        simulator.run(overwrite_workload(), "meta", max_events=25)
        checkpoint = simulator.checkpoint()
        assert checkpoint.version == CHECKPOINT_VERSION
        assert checkpoint.scheduler == "SPK3"
        assert checkpoint.workload_name == "meta"
        assert checkpoint.events_processed == simulator.events.processed
        assert checkpoint.now_ns == simulator.now_ns
        assert checkpoint.config_fingerprint == gc_config().fingerprint()


class TestRestoreValidation:
    def paused_checkpoint(self) -> SimulatorCheckpoint:
        simulator = SSDSimulator(gc_config(), "SPK3")
        simulator.run(overwrite_workload(), max_events=20)
        return simulator.checkpoint()

    def test_non_checkpoint_object_rejected(self):
        with pytest.raises(CheckpointError, match="SimulatorCheckpoint"):
            SSDSimulator.resume({"payload": b""})

    def test_version_mismatch_rejected(self):
        checkpoint = dataclasses.replace(self.paused_checkpoint(), version=99)
        with pytest.raises(CheckpointError, match="version 99"):
            SSDSimulator.resume(checkpoint)

    def test_busy_set_era_checkpoint_rejected(self):
        # Version 3 pickled controller busy sets and a list of scheduler
        # tags; version 4 pickled the collector's history-mode fields and
        # the tail tracker's window-cap slot; version 5 pickled bad-block
        # flags, FTL migration listeners and the callback's controller map.
        # Resuming any of them must fail by name, not deep inside a handler.
        assert CHECKPOINT_VERSION == 6
        for version in (3, 4, 5):
            checkpoint = dataclasses.replace(self.paused_checkpoint(), version=version)
            with pytest.raises(CheckpointError, match=f"version {version} is not supported"):
                SSDSimulator.resume(checkpoint)

    def test_corrupted_payload_rejected(self):
        checkpoint = self.paused_checkpoint()
        corrupted = dataclasses.replace(
            checkpoint, payload=checkpoint.payload[:-1] + b"\x00"
        )
        with pytest.raises(CheckpointError, match="SHA-256"):
            SSDSimulator.resume(corrupted)

    def _with_payload(self, checkpoint: SimulatorCheckpoint, state) -> SimulatorCheckpoint:
        import hashlib

        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        return dataclasses.replace(
            checkpoint,
            payload=payload,
            payload_sha256=hashlib.sha256(payload).hexdigest(),
        )

    def test_unknown_state_field_rejected(self):
        checkpoint = self.paused_checkpoint()
        state = pickle.loads(checkpoint.payload)
        state["extra_field"] = 1
        with pytest.raises(CheckpointError, match="extra_field"):
            SSDSimulator.resume(self._with_payload(checkpoint, state))

    def test_missing_state_field_rejected(self):
        checkpoint = self.paused_checkpoint()
        state = pickle.loads(checkpoint.payload)
        del state["ftl"]
        with pytest.raises(CheckpointError, match="ftl"):
            SSDSimulator.resume(self._with_payload(checkpoint, state))

    def test_mistyped_state_field_rejected(self):
        checkpoint = self.paused_checkpoint()
        state = pickle.loads(checkpoint.payload)
        state["ftl"] = "not an FTL"
        with pytest.raises(CheckpointError, match="'ftl'"):
            SSDSimulator.resume(self._with_payload(checkpoint, state))

    def test_payload_config_must_match_envelope_fingerprint(self):
        checkpoint = self.paused_checkpoint()
        state = pickle.loads(checkpoint.payload)
        state["config"] = SimulationConfig.small()
        with pytest.raises(CheckpointError, match="fingerprint"):
            SSDSimulator.resume(self._with_payload(checkpoint, state))

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(CheckpointError, match="not a simulator checkpoint"):
            SimulatorCheckpoint.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        checkpoint = self.paused_checkpoint()
        path = checkpoint.save(tmp_path / "run.ckpt")
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointError, match="unreadable"):
            SimulatorCheckpoint.load(path)

    def test_envelope_with_extra_keys_rejected(self, tmp_path):
        checkpoint = self.paused_checkpoint()
        path = checkpoint.save(tmp_path / "run.ckpt")
        document = pickle.loads(path.read_bytes())
        document["bonus"] = 1
        path.write_bytes(pickle.dumps(document))
        with pytest.raises(CheckpointError, match="bonus"):
            SimulatorCheckpoint.load(path)


class TestCheckpointStore:
    def job(self, seed: int = 7) -> SimJob:
        return SimJob(
            workload=WorkloadSpec.mixed(
                "store-io",
                num_requests=24,
                size_bytes=4 * KB,
                read_fraction=0.2,
                seed=seed,
            ),
            scheduler="SPK3",
            config=gc_config(),
        )

    def paused_checkpoint(self) -> SimulatorCheckpoint:
        job = self.job()
        simulator = SSDSimulator(job.resolved_config, job.scheduler)
        simulator.run(job.workload.build(), max_events=20)
        return simulator.checkpoint()

    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        checkpoint = self.paused_checkpoint()
        fingerprint = self.job().fingerprint()
        path = store.save(fingerprint, checkpoint)
        assert path.name == f"{fingerprint}.{checkpoint.events_processed:012d}.ckpt"
        loaded = store.load(fingerprint, checkpoint.events_processed)
        assert loaded == checkpoint

    def test_latest_picks_highest_event_count(self, tmp_path):
        store = CheckpointStore(tmp_path)
        fingerprint = self.job().fingerprint()
        early = self.paused_checkpoint()
        late = dataclasses.replace(early, events_processed=early.events_processed + 50)
        store.save(fingerprint, early)
        store.save(fingerprint, late)
        assert store.events_available(fingerprint) == [
            early.events_processed,
            late.events_processed,
        ]
        events, loaded = store.latest(fingerprint)
        assert events == late.events_processed
        assert loaded.events_processed == late.events_processed

    def test_latest_falls_back_past_a_corrupt_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        fingerprint = self.job().fingerprint()
        early = self.paused_checkpoint()
        store.save(fingerprint, early)
        corrupt = store.path(fingerprint, early.events_processed + 100)
        corrupt.write_bytes(b"torn write")
        events, _ = store.latest(fingerprint)
        assert events == early.events_processed

    def test_latest_of_unknown_fingerprint_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).latest("f" * 64) is None

    def test_discard_removes_only_that_fingerprint(self, tmp_path):
        store = CheckpointStore(tmp_path)
        checkpoint = self.paused_checkpoint()
        store.save("a" * 64, checkpoint)
        store.save("b" * 64, checkpoint)
        assert store.discard("a" * 64) == 1
        assert store.fingerprints() == ["b" * 64]
        assert len(store) == 1

    def test_unusable_directory_rejected(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(ValueError, match="not usable"):
            CheckpointStore(blocker / "store")

    def test_run_job_checkpointed_matches_execute(self, tmp_path):
        job = self.job()
        store = CheckpointStore(tmp_path)
        result = run_job_checkpointed(job, store, every_events=30)
        assert stable_fingerprint(result) == stable_fingerprint(job.execute())
        # Completed jobs clean up their snapshot trail by default.
        assert len(store) == 0

    def test_run_job_checkpointed_keeps_snapshots_when_asked(self, tmp_path):
        job = self.job()
        store = CheckpointStore(tmp_path)
        run_job_checkpointed(job, store, every_events=30, keep_checkpoints=True)
        assert store.events_available(job.fingerprint())

    def test_run_job_checkpointed_resumes_from_existing_snapshot(self, tmp_path):
        job = self.job()
        expected = stable_fingerprint(job.execute())
        store = CheckpointStore(tmp_path)
        # Simulate an interrupted run: pause, persist, abandon the simulator.
        simulator = SSDSimulator(job.resolved_config, job.scheduler)
        simulator.run(job.workload.build(), job.workload.name, max_events=40)
        store.save(job.fingerprint(), simulator.checkpoint())
        result = run_job_checkpointed(job, store, every_events=30)
        assert stable_fingerprint(result) == expected

    def test_invalid_cadence_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="every_events"):
            run_job_checkpointed(self.job(), CheckpointStore(tmp_path), every_events=0)


class TestEngineIntegration:
    def jobs(self):
        workload = WorkloadSpec.mixed(
            "engine-io", num_requests=24, size_bytes=4 * KB, read_fraction=0.2, seed=7
        )
        return [
            SimJob(workload=workload, scheduler=scheduler, config=gc_config())
            for scheduler in ("VAS", "SPK3")
        ]

    def test_checkpointing_engine_is_bit_identical(self, tmp_path):
        jobs = self.jobs()
        plain = ExecutionEngine("serial").run_jobs(jobs)
        checkpointed = ExecutionEngine(
            "serial", checkpoint_dir=tmp_path / "ckpt", checkpoint_every=30
        ).run_jobs(jobs)
        assert [stable_fingerprint(r) for r in plain] == [
            stable_fingerprint(r) for r in checkpointed
        ]

    def test_process_backend_composes_with_checkpointing(self, tmp_path):
        jobs = self.jobs()
        plain = ExecutionEngine("serial").run_jobs(jobs)
        checkpointed = ExecutionEngine(
            "process",
            max_workers=2,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=30,
        ).run_jobs(jobs)
        assert [stable_fingerprint(r) for r in plain] == [
            stable_fingerprint(r) for r in checkpointed
        ]

    def test_invalid_cadence_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            ExecutionEngine(checkpoint_dir=tmp_path, checkpoint_every=0)

    def test_cli_flags_configure_the_engine(self, tmp_path):
        engine = engine_from_cli(
            "test",
            ["--checkpoint-dir", str(tmp_path / "ckpt"), "--checkpoint-every", "123"],
        )
        assert engine.checkpoint_dir == tmp_path / "ckpt"
        assert engine.checkpoint_every == 123
        assert (tmp_path / "ckpt").is_dir()

    def test_cli_defaults_leave_checkpointing_off(self):
        engine = engine_from_cli("test", [])
        assert engine.checkpoint_dir is None
