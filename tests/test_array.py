"""Tests for the multi-SSD array layer (layout, host merge, array_scaling)."""

import pickle

import pytest

from repro.array.host import ArrayResult, ArraySimulation, merge_device_results
from repro.array.layout import ArrayLayout, split_trace
from repro.experiments import array_scaling
from repro.experiments.engine import ExecutionEngine
from repro.experiments.spec import ArraySpec, WorkloadSpec
from repro.sim.config import SimulationConfig
from repro.workloads.request import IOKind, IORequest

KB = 1024

SMALL_ARRAY_CONFIG = SimulationConfig.paper_scale(16).with_overrides(gc_enabled=False)


def demo_workload(num_requests=16, size_bytes=96 * KB, seed=5) -> WorkloadSpec:
    return WorkloadSpec.random(
        "array-demo",
        num_requests=num_requests,
        size_bytes=size_bytes,
        read_fraction=1.0,
        seed=seed,
    )


def one_request(offset, size, *, kind=IOKind.READ, arrival=0) -> IORequest:
    return IORequest(kind=kind, offset_bytes=offset, size_bytes=size, arrival_ns=arrival)


class TestArrayLayout:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayLayout(num_devices=0)
        with pytest.raises(ValueError):
            ArrayLayout(num_devices=2, policy="raid6")
        with pytest.raises(ValueError):
            ArrayLayout(num_devices=2, chunk_bytes=0)
        with pytest.raises(ValueError):
            ArrayLayout(num_devices=2, policy="range", shard_bytes=-1)

    def test_stripe_round_robin_and_local_offsets(self):
        layout = ArrayLayout(num_devices=2, policy="stripe", chunk_bytes=4 * KB)
        # One request covering stripe units 0..3 -> units 0,2 on dev0 and
        # 1,3 on dev1, each pair contiguous in its device's local space.
        subs = split_trace([one_request(0, 16 * KB)], layout)
        assert [(io.offset_bytes, io.size_bytes) for io in subs[0]] == [(0, 8 * KB)]
        assert [(io.offset_bytes, io.size_bytes) for io in subs[1]] == [(0, 8 * KB)]

    def test_stripe_small_requests_stay_whole(self):
        layout = ArrayLayout(num_devices=4, policy="stripe", chunk_bytes=64 * KB)
        subs = split_trace([one_request(64 * KB * unit, 4 * KB) for unit in range(8)], layout)
        # Unit u -> device u % 4 at local unit u // 4.
        for device, sub in enumerate(subs):
            assert [io.offset_bytes for io in sub] == [0, 64 * KB]
            assert all(io.size_bytes == 4 * KB for io in sub)

    def test_range_sharding_keeps_locality(self):
        layout = ArrayLayout(num_devices=2, policy="range", shard_bytes=128 * KB)
        subs = split_trace(
            [one_request(0, 8 * KB), one_request(130 * KB, 8 * KB), one_request(126 * KB, 4 * KB)],
            layout,
        )
        # The 126KB request straddles the shard edge and splits.
        assert [(io.offset_bytes, io.size_bytes) for io in subs[0]] == [
            (0, 8 * KB),
            (126 * KB, 2 * KB),
        ]
        assert [(io.offset_bytes, io.size_bytes) for io in subs[1]] == [
            (2 * KB, 8 * KB),
            (0, 2 * KB),
        ]

    def test_range_offsets_past_last_shard_clamp(self):
        layout = ArrayLayout(num_devices=2, policy="range", shard_bytes=64 * KB)
        subs = split_trace([one_request(1024 * KB, 4 * KB)], layout)
        assert subs[0] == []
        assert subs[1][0].offset_bytes == 1024 * KB - 64 * KB

    @pytest.mark.parametrize("policy", ["stripe", "range", "hash"])
    def test_bytes_kinds_and_arrivals_conserved(self, policy):
        trace = demo_workload(num_requests=24).build()
        trace[3].kind = IOKind.WRITE
        subs = split_trace(trace, ArrayLayout(num_devices=3, policy=policy))
        assert sum(io.size_bytes for sub in subs for io in sub) == sum(
            io.size_bytes for io in trace
        )
        assert sum(io.size_bytes for sub in subs for io in sub if io.is_write) == sum(
            io.size_bytes for io in trace if io.is_write
        )
        assert {io.arrival_ns for sub in subs for io in sub} <= {io.arrival_ns for io in trace}

    @pytest.mark.parametrize("policy", ["stripe", "range", "hash"])
    def test_sub_traces_renumbered_and_deterministic(self, policy):
        trace = demo_workload(num_requests=24).build()
        layout = ArrayLayout(num_devices=3, policy=policy)
        first = split_trace(trace, layout)
        second = split_trace(trace, layout)
        for sub_a, sub_b in zip(first, second):
            assert [io.io_id for io in sub_a] == list(range(len(sub_a)))
            assert [(io.offset_bytes, io.size_bytes) for io in sub_a] == [
                (io.offset_bytes, io.size_bytes) for io in sub_b
            ]

    def test_single_device_stripe_is_identity(self):
        trace = demo_workload(num_requests=12).build()
        (sub,) = split_trace(trace, ArrayLayout(num_devices=1, policy="stripe"))
        assert [(io.offset_bytes, io.size_bytes) for io in sub] == [
            (io.offset_bytes, io.size_bytes) for io in trace
        ]

    def test_hash_packs_chunks_densely(self):
        layout = ArrayLayout(num_devices=2, policy="hash", chunk_bytes=4 * KB)
        trace = [one_request(4 * KB * unit, 4 * KB) for unit in range(16)]
        subs = split_trace(trace, layout)
        for sub in subs:
            assert sorted(io.offset_bytes for io in sub) == [
                4 * KB * index for index in range(len(sub))
            ]

    def test_describe_labels(self):
        assert ArrayLayout(num_devices=4).describe() == "stripe(4x64KB)"
        assert ArrayLayout(num_devices=2, policy="range").describe() == "range(2)"


class TestArraySpec:
    def test_fingerprint_tracks_every_axis(self):
        base = ArraySpec(
            workload=demo_workload(),
            num_devices=2,
            scheduler="SPK3",
            config=SMALL_ARRAY_CONFIG,
        )
        same = ArraySpec(
            workload=demo_workload(),
            num_devices=2,
            scheduler="SPK3",
            config=SMALL_ARRAY_CONFIG,
        )
        assert base.fingerprint() == same.fingerprint()
        variants = [
            base.__class__(**{**base.__dict__, "num_devices": 4}),
            base.__class__(**{**base.__dict__, "policy": "hash"}),
            base.__class__(**{**base.__dict__, "chunk_bytes": 16 * KB}),
            base.__class__(**{**base.__dict__, "scheduler": "VAS"}),
            base.__class__(**{**base.__dict__, "workload": demo_workload(seed=6)}),
        ]
        fingerprints = {spec.fingerprint() for spec in variants} | {base.fingerprint()}
        assert len(fingerprints) == len(variants) + 1

    def test_key_does_not_enter_fingerprint(self):
        kwargs = dict(
            workload=demo_workload(),
            num_devices=2,
            scheduler="SPK3",
            config=SMALL_ARRAY_CONFIG,
        )
        assert (
            ArraySpec(key=("a",), **kwargs).fingerprint()
            == ArraySpec(key=("b",), **kwargs).fingerprint()
        )

    def test_device_jobs_cover_all_devices(self):
        spec = ArraySpec(
            workload=demo_workload(),
            num_devices=3,
            scheduler="SPK1",
            config=SMALL_ARRAY_CONFIG,
            key=("cell",),
        )
        jobs = spec.device_jobs()
        assert len(jobs) == 3
        assert [job.key for job in jobs] == [("cell", 0), ("cell", 1), ("cell", 2)]
        assert all(job.scheduler == "SPK1" for job in jobs)
        rebuilt = [job.workload.build() for job in jobs]
        assert sum(len(sub) for sub in rebuilt) >= len(demo_workload().build())


class TestArraySimulation:
    def test_striped_read_bandwidth_is_sum_of_devices(self):
        # Acceptance criterion: for a striped read-only trace the array
        # aggregate bandwidth equals the sum of per-device bandwidths.
        sim = ArraySimulation(
            ArrayLayout(num_devices=3, policy="stripe"), SMALL_ARRAY_CONFIG, "SPK3"
        )
        workload = demo_workload(num_requests=18)
        result = sim.run(workload)
        assert result.num_devices == 3
        assert result.bandwidth_kb_s == pytest.approx(
            sum(device.bandwidth_kb_s for device in result.device_results)
        )
        assert result.iops == pytest.approx(
            sum(device.iops for device in result.device_results)
        )
        assert result.total_bytes == sum(io.size_bytes for io in workload.build())

    def test_merged_latency_and_utilization_pool_devices(self):
        sim = ArraySimulation(
            ArrayLayout(num_devices=2, policy="stripe"), SMALL_ARRAY_CONFIG, "SPK3"
        )
        result = sim.run(demo_workload(num_requests=12))
        assert result.latency.count == sum(
            device.latency.count for device in result.device_results
        )
        assert len(result.utilization.per_chip) == sum(
            len(device.utilization.per_chip) for device in result.device_results
        )
        assert result.makespan_ns == max(
            device.makespan_ns for device in result.device_results
        )

    def test_device_jobs_hit_the_result_cache(self, tmp_path):
        sim = ArraySimulation(
            ArrayLayout(num_devices=2, policy="stripe"), SMALL_ARRAY_CONFIG, "SPK3"
        )
        warm_engine = ExecutionEngine("serial", cache_dir=tmp_path)
        warm = sim.run(demo_workload(num_requests=12), engine=warm_engine)
        assert warm_engine.stats.jobs_executed == 2

        cached_engine = ExecutionEngine("serial", cache_dir=tmp_path)
        cached = sim.run(demo_workload(num_requests=12), engine=cached_engine)
        assert cached_engine.stats.jobs_executed == 0
        assert cached_engine.stats.cache_hits == 2
        for fresh, reloaded in zip(warm.device_results, cached.device_results):
            assert pickle.dumps(fresh) == pickle.dumps(reloaded)
        assert warm.summary_row() == cached.summary_row()

    def test_empty_device_is_tolerated(self):
        # Range sharding with everything in the first shard leaves device 1
        # with no work; the array must still merge cleanly.
        layout = ArrayLayout(num_devices=2, policy="range", shard_bytes=1024 * 1024 * KB)
        sim = ArraySimulation(layout, SMALL_ARRAY_CONFIG, "SPK3")
        result = sim.run(demo_workload(num_requests=8))
        assert result.device_results[1].completed_ios == 0
        assert result.byte_imbalance() == pytest.approx(2.0)
        assert result.bandwidth_kb_s > 0.0

    def test_empty_array_result_sentinels(self):
        result = merge_device_results([], scheduler="SPK3", workload="none", policy="stripe")
        assert isinstance(result, ArrayResult)
        assert result.makespan_ns == 0
        assert result.byte_imbalance() == 0.0
        assert result.device_utilization_spread == 0.0


class TestArrayScaling:
    SMALL = dict(
        device_counts=(1, 2),
        policies=("stripe", "range"),
        schedulers=("VAS", "SPK3"),
        num_requests=8,
        size_kb=64,
        chips_per_device=16,
        seed=3,
    )

    def test_serial_and_process_backends_are_bit_identical(self):
        serial = array_scaling.run_array_scaling(**self.SMALL, engine=ExecutionEngine("serial"))
        parallel = array_scaling.run_array_scaling(
            **self.SMALL, engine=ExecutionEngine("process", max_workers=2)
        )
        assert pickle.dumps(serial) == pickle.dumps(parallel)

    def test_rows_cover_the_grid(self):
        rows = array_scaling.run_array_scaling(**self.SMALL)
        assert len(rows) == 8
        assert {(row["devices"], row["policy"], row["scheduler"]) for row in rows} == {
            (devices, policy, scheduler)
            for devices in (1, 2)
            for policy in ("stripe", "range")
            for scheduler in ("VAS", "SPK3")
        }
        assert all(row["bandwidth_mb_s"] > 0 for row in rows)

    def test_adding_devices_increases_aggregate_bandwidth(self):
        rows = array_scaling.run_array_scaling(**self.SMALL)
        by_cell = {
            (row["devices"], row["policy"], row["scheduler"]): row["bandwidth_mb_s"]
            for row in rows
        }
        assert by_cell[(2, "stripe", "SPK3")] > by_cell[(1, "stripe", "SPK3")]

    def test_scaling_efficiency_shape(self):
        rows = array_scaling.run_array_scaling(**self.SMALL)
        efficiency = array_scaling.scaling_efficiency(rows)
        assert set(efficiency) == {
            ("stripe", "VAS"),
            ("stripe", "SPK3"),
            ("range", "VAS"),
            ("range", "SPK3"),
        }
        assert all(value > 0 for value in efficiency.values())
