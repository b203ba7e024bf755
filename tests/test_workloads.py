"""Tests for the synthetic and Table 1 workload generators."""

import pytest

from repro.workloads.datacenter import (
    DATACENTER_TRACE_NAMES,
    datacenter_profile,
    generate_datacenter_trace,
    trace_table_row,
)
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_mixed_workload,
    generate_random_workload,
    generate_sequential_workload,
)

KB = 1024


class TestSyntheticGenerators:
    def test_request_count_and_size(self):
        workload = generate_random_workload(num_requests=32, size_bytes=8 * KB)
        assert len(workload) == 32
        assert all(io.size_bytes == 8 * KB for io in workload)

    def test_deterministic_for_seed(self):
        first = generate_random_workload(num_requests=16, size_bytes=4 * KB, seed=3)
        second = generate_random_workload(num_requests=16, size_bytes=4 * KB, seed=3)
        assert [io.offset_bytes for io in first] == [io.offset_bytes for io in second]

    def test_different_seeds_differ(self):
        first = generate_random_workload(num_requests=16, size_bytes=4 * KB, seed=1)
        second = generate_random_workload(num_requests=16, size_bytes=4 * KB, seed=2)
        assert [io.offset_bytes for io in first] != [io.offset_bytes for io in second]

    def test_read_fraction_zero_means_all_writes(self):
        workload = generate_random_workload(
            num_requests=20, size_bytes=4 * KB, read_fraction=0.0
        )
        assert all(io.is_write for io in workload)

    def test_offsets_aligned_and_bounded(self):
        config = SyntheticWorkloadConfig(
            num_requests=64, size_bytes=16 * KB, address_space_bytes=4 * 1024 * KB
        )
        workload = generate_mixed_workload(config)
        for io in workload:
            assert io.offset_bytes % config.align_bytes == 0
            assert io.end_offset_bytes <= config.address_space_bytes

    def test_arrival_times_increase(self):
        workload = generate_random_workload(num_requests=10, size_bytes=4 * KB)
        arrivals = [io.arrival_ns for io in workload]
        assert arrivals == sorted(arrivals)

    def test_sequential_workload_is_contiguous(self):
        workload = generate_sequential_workload(num_requests=8, size_bytes=4 * KB)
        for earlier, later in zip(workload, workload[1:]):
            assert later.offset_bytes == earlier.end_offset_bytes

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(num_requests=0),
            dict(size_bytes=0),
            dict(read_fraction=2.0),
            dict(randomness=-0.1),
            dict(address_space_bytes=1),
            dict(interarrival_ns=-1),
            dict(align_bytes=0),
        ],
    )
    def test_config_validation(self, overrides):
        values = dict(num_requests=4, size_bytes=4 * KB)
        values.update(overrides)
        with pytest.raises(ValueError):
            SyntheticWorkloadConfig(**values)


class TestDatacenterTraces:
    def test_all_sixteen_traces_defined(self):
        assert len(DATACENTER_TRACE_NAMES) == 16
        assert "cfs0" in DATACENTER_TRACE_NAMES and "proj4" in DATACENTER_TRACE_NAMES

    def test_profile_lookup_and_error(self):
        profile = datacenter_profile("msnfs2")
        assert profile.locality == "high"
        with pytest.raises(KeyError):
            datacenter_profile("unknown")

    def test_table_row_fields(self):
        row = trace_table_row("cfs0")
        assert row["trace"] == "cfs0"
        assert row["read_mb"] == 3607
        assert row["locality"] == "low"

    def test_generated_trace_matches_read_fraction(self):
        profile = datacenter_profile("hm1")  # strongly read-dominant
        trace = generate_datacenter_trace("hm1", num_requests=400, seed=1)
        reads = sum(1 for io in trace if not io.is_write)
        assert reads / len(trace) == pytest.approx(profile.read_fraction, abs=0.1)

    def test_write_heavy_trace(self):
        trace = generate_datacenter_trace("msnfs0", num_requests=300, seed=1)
        writes = sum(1 for io in trace if io.is_write)
        assert writes / len(trace) > 0.8

    def test_trace_is_deterministic_for_seed(self):
        first = generate_datacenter_trace("proj0", num_requests=50, seed=9)
        second = generate_datacenter_trace("proj0", num_requests=50, seed=9)
        assert [(io.offset_bytes, io.size_bytes) for io in first] == [
            (io.offset_bytes, io.size_bytes) for io in second
        ]

    def test_offsets_page_aligned(self):
        trace = generate_datacenter_trace("cfs3", num_requests=100, seed=2)
        assert all(io.offset_bytes % 2048 == 0 for io in trace)

    def test_sizes_bounded(self):
        trace = generate_datacenter_trace("proj2", num_requests=100, seed=2)
        assert all(2048 <= io.size_bytes <= 4 * 1024 * KB for io in trace)

    def test_high_locality_trace_reuses_neighbourhoods(self):
        trace = generate_datacenter_trace("msnfs3", num_requests=200, seed=5)
        offsets = [io.offset_bytes for io in trace]
        # With high locality many requests land within a window of a recent one.
        close_pairs = sum(
            1
            for a, b in zip(offsets, offsets[1:])
            if abs(a - b) <= 1024 * KB
        )
        assert close_pairs > 20
