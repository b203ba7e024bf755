"""Tests for the declarative experiment specs and the execution engine."""

import pickle
from dataclasses import replace

import pytest

from repro.experiments.engine import (
    ExecutionEngine,
    ResultCache,
    engine_from_cli,
)
from repro.experiments.runner import (
    ExperimentScale,
    default_workload_specs,
    paper_config,
)
from repro.experiments.spec import ExperimentSpec, SimJob, WorkloadSpec
from repro.sim.config import SimulationConfig, stable_fingerprint
from repro.workloads.request import IOKind, IORequest
from repro.workloads.synthetic import generate_random_workload

TINY = ExperimentScale(
    requests_per_trace=24,
    requests_per_point=6,
    num_chips=16,
    traces=("cfs0", "msnfs1"),
    seed=3,
)


def tiny_spec(**config_overrides) -> ExperimentSpec:
    config = paper_config(TINY, **config_overrides) if config_overrides else paper_config(TINY)
    return ExperimentSpec.matrix(
        "tiny",
        default_workload_specs(TINY).values(),
        ("VAS", "SPK3"),
        config,
    )


class TestWorkloadSpec:
    def test_build_is_deterministic(self):
        spec = WorkloadSpec.datacenter("cfs0", num_requests=16, seed=5)
        first = spec.build()
        second = spec.build()
        assert [io.offset_bytes for io in first] == [io.offset_bytes for io in second]
        assert [io.io_id for io in first] == [io.io_id for io in second]
        assert [io.io_id for io in first] == list(range(16))

    def test_inline_round_trip(self):
        original = generate_random_workload(num_requests=5, size_bytes=4096, seed=9)
        spec = WorkloadSpec.inline("inline-demo", original)
        rebuilt = spec.build()
        assert [(io.kind, io.offset_bytes, io.size_bytes, io.arrival_ns) for io in rebuilt] == [
            (io.kind, io.offset_bytes, io.size_bytes, io.arrival_ns) for io in original
        ]

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec("nope", "x").build()

    def test_build_leaves_global_id_counter_alone(self):
        before = IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=4096, arrival_ns=0)
        WorkloadSpec.datacenter("cfs0", num_requests=16, seed=5).build()
        after = IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=4096, arrival_ns=0)
        # Building a spec must not rewind the process-global io_id counter.
        assert after.io_id > before.io_id

    def test_fingerprint_tracks_params(self):
        a = WorkloadSpec.datacenter("cfs0", num_requests=16, seed=5)
        b = WorkloadSpec.datacenter("cfs0", num_requests=16, seed=5)
        c = WorkloadSpec.datacenter("cfs0", num_requests=16, seed=6)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestFingerprints:
    def test_config_fingerprint_stable_and_sensitive(self):
        config = SimulationConfig.paper_scale(16)
        assert stable_fingerprint(config) == stable_fingerprint(SimulationConfig.paper_scale(16))
        assert stable_fingerprint(config) != stable_fingerprint(
            config.with_overrides(queue_depth=8)
        )
        assert stable_fingerprint(config.with_overrides(queue_depth=8)) != stable_fingerprint(
            config.with_overrides(queue_depth=32)
        )

    def test_job_fingerprint_sensitive_to_every_axis(self):
        workload = WorkloadSpec.datacenter("cfs0", num_requests=16, seed=5)
        config = SimulationConfig.paper_scale(16)
        base = SimJob(workload=workload, scheduler="SPK3", config=config)
        assert base.fingerprint() == SimJob(
            workload=workload, scheduler="SPK3", config=config
        ).fingerprint()
        variants = [
            SimJob(workload=workload, scheduler="VAS", config=config),
            SimJob(
                workload=workload,
                scheduler="SPK3",
                config=config.with_overrides(queue_depth=32),
            ),
            SimJob(
                workload=workload,
                scheduler="SPK3",
                config=config,
                scheduler_options=(("overcommit_limit", 4),),
            ),
            SimJob(
                workload=WorkloadSpec.datacenter("cfs0", num_requests=17, seed=5),
                scheduler="SPK3",
                config=config,
            ),
        ]
        fingerprints = {job.fingerprint() for job in variants} | {base.fingerprint()}
        assert len(fingerprints) == len(variants) + 1

    def test_option_order_does_not_enter_fingerprint(self):
        workload = WorkloadSpec.datacenter("cfs0", num_requests=16, seed=5)
        config = SimulationConfig.paper_scale(16)
        a = SimJob(
            workload=workload,
            scheduler="SPK3",
            config=config,
            scheduler_options=(("overcommit_limit", 4), ("channel_first_traversal", True)),
        )
        b = SimJob(
            workload=workload,
            scheduler="SPK3",
            config=config,
            scheduler_options=(("channel_first_traversal", True), ("overcommit_limit", 4)),
        )
        assert a.fingerprint() == b.fingerprint()

    def test_key_does_not_enter_fingerprint(self):
        workload = WorkloadSpec.datacenter("cfs0", num_requests=16, seed=5)
        config = SimulationConfig.paper_scale(16)
        a = SimJob(workload=workload, scheduler="SPK3", config=config, key=("a",))
        b = SimJob(workload=workload, scheduler="SPK3", config=config, key=("b",))
        assert a.fingerprint() == b.fingerprint()


class TestExperimentSpec:
    def test_matrix_keys(self):
        spec = tiny_spec()
        assert len(spec.jobs) == 4
        assert [job.key for job in spec.jobs] == [
            ("cfs0", "VAS"),
            ("cfs0", "SPK3"),
            ("msnfs1", "VAS"),
            ("msnfs1", "SPK3"),
        ]

    def test_duplicate_keys_rejected(self):
        workload = WorkloadSpec.datacenter("cfs0", num_requests=8, seed=1)
        config = SimulationConfig.paper_scale(16)
        job = SimJob(workload=workload, scheduler="VAS", config=config, key=("dup",))
        with pytest.raises(ValueError):
            ExperimentSpec("bad", (job, job))

    def test_matrix_runs_inline_specs(self):
        workload = generate_random_workload(num_requests=6, size_bytes=4096, seed=2)
        spec = ExperimentSpec.matrix(
            "inline",
            [WorkloadSpec.inline("demo", workload)],
            ("VAS", "SPK3"),
            SimulationConfig.paper_scale(16),
        )
        results = ExecutionEngine().run(spec)
        assert set(results) == {("demo", "VAS"), ("demo", "SPK3")}
        assert all(result.completed_ios == 6 for result in results.values())


class TestExecutionEngine:
    def test_serial_and_process_backends_are_bit_identical(self):
        jobs = tiny_spec().jobs
        # Scheduler options must reach the simulator in a worker process too.
        tuned = replace(
            jobs[-1],
            scheduler_options=(("channel_first_traversal", True), ("overcommit_limit", 1)),
            key=("tuned",),
        )
        spec = ExperimentSpec("tiny-tuned", jobs + (tuned,))
        serial = ExecutionEngine("serial").run(spec)
        parallel = ExecutionEngine("process", max_workers=2).run(spec)
        assert list(serial) == list(parallel)
        for key in serial:
            assert pickle.dumps(serial[key]) == pickle.dumps(parallel[key])

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ExecutionEngine("threads")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError):
            ExecutionEngine("process", max_workers=0)

    def test_cache_dir_must_be_a_directory(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        with pytest.raises(ValueError):
            ExecutionEngine("serial", cache_dir=not_a_dir)

    def test_cache_dir_under_a_file_raises_value_error(self, tmp_path):
        # Regression: mkdir(parents=True) below an existing plain file
        # raises NotADirectoryError on POSIX, which escaped the old
        # FileExistsError-only handler as a raw traceback.
        blocking_file = tmp_path / "file"
        blocking_file.write_text("x")
        with pytest.raises(ValueError):
            ExecutionEngine("serial", cache_dir=blocking_file / "nested" / "cache")

    def test_duplicate_jobs_in_one_batch_execute_once(self):
        spec = tiny_spec()
        job = spec.jobs[0]
        twin = SimJob(
            workload=job.workload,
            scheduler=job.scheduler,
            config=job.config,
            scheduler_options=job.scheduler_options,
            key=("twin",),
        )
        engine = ExecutionEngine("serial")
        results = engine.run_jobs([job, twin, job])
        assert engine.stats.jobs_submitted == 3
        assert engine.stats.jobs_executed == 1
        assert len(results) == 3
        assert pickle.dumps(results[0]) == pickle.dumps(results[1]) == pickle.dumps(results[2])
        # Duplicates are independent objects (like cache-hit duplicates),
        # so in-place post-processing of one cell cannot corrupt another.
        assert results[0] is not results[1] and results[0] is not results[2]
        results[0].latency.add(1)
        assert results[1].latency.count == results[2].latency.count == results[0].latency.count - 1

    def test_duplicate_jobs_store_one_cache_entry(self, tmp_path):
        spec = tiny_spec()
        job = spec.jobs[0]
        engine = ExecutionEngine("process", max_workers=2, cache_dir=tmp_path)
        engine.run_jobs([job, job])
        assert engine.stats.jobs_executed == 1
        assert engine.stats.cache_stores == 1
        assert len(list(engine.cache.directory.glob("*.pkl"))) == 1
        # A warm rerun of the duplicated batch is pure cache hits.
        rerun = ExecutionEngine("serial", cache_dir=tmp_path)
        rerun.run_jobs([job, job])
        assert rerun.stats.jobs_executed == 0
        assert rerun.stats.cache_hits == 2

    def test_cache_hit_skips_execution(self, tmp_path):
        spec = tiny_spec()
        first = ExecutionEngine("serial", cache_dir=tmp_path)
        warm = first.run(spec)
        assert first.stats.jobs_executed == len(spec.jobs)
        assert first.stats.cache_hits == 0

        second = ExecutionEngine("serial", cache_dir=tmp_path)
        cached = second.run(spec)
        assert second.stats.jobs_executed == 0
        assert second.stats.cache_hits == len(spec.jobs)
        for key in warm:
            assert pickle.dumps(warm[key]) == pickle.dumps(cached[key])

    def test_cache_key_changes_with_config_knob(self, tmp_path):
        engine = ExecutionEngine("serial", cache_dir=tmp_path)
        engine.run(tiny_spec())
        assert engine.stats.cache_hits == 0
        # A different queue depth must not hit the warm cache entries.
        engine.run(tiny_spec(queue_depth=32))
        assert engine.stats.cache_hits == 0
        assert engine.stats.jobs_executed == 2 * len(tiny_spec().jobs)
        # Re-running the original spec still hits.
        engine.run(tiny_spec())
        assert engine.stats.cache_hits == len(tiny_spec().jobs)

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        spec = tiny_spec()
        engine = ExecutionEngine("serial", cache_dir=tmp_path)
        engine.run(spec)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        rerun = ExecutionEngine("serial", cache_dir=tmp_path)
        results = rerun.run(spec)
        assert rerun.stats.cache_hits == 0
        assert rerun.stats.jobs_executed == len(spec.jobs)
        assert len(results) == len(spec.jobs)

    def test_result_cache_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        result = spec.jobs[0].execute()
        cache.store("abc", result)
        assert len(list(cache.directory.glob("*.pkl"))) == 1
        assert pickle.dumps(cache.load("abc")) == pickle.dumps(result)
        assert cache.load("missing") is None

    def test_build_workloads_rejects_duplicate_names(self):
        specs = [
            WorkloadSpec.datacenter("cfs0", num_requests=8, seed=1),
            WorkloadSpec.datacenter("cfs0", num_requests=16, seed=2),
        ]
        with pytest.raises(ValueError):
            ExecutionEngine().build_workloads(specs)

    def test_build_workloads_matches_direct_build(self):
        specs = list(default_workload_specs(TINY).values())
        built = ExecutionEngine("process", max_workers=2).build_workloads(specs)
        for spec in specs:
            direct = spec.build()
            assert [io.offset_bytes for io in built[spec.name]] == [
                io.offset_bytes for io in direct
            ]


class TestEngineCli:
    def test_defaults(self):
        engine = engine_from_cli("test", [])
        assert engine.backend == "serial"
        assert engine.cache is None

    def test_process_flags(self, tmp_path):
        engine = engine_from_cli(
            "test", ["--backend", "process", "--workers", "3", "--cache-dir", str(tmp_path)]
        )
        assert engine.backend == "process"
        assert engine.max_workers == 3
        assert engine.cache is not None
