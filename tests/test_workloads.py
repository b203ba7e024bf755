"""Tests for workload generators and trace tooling."""

import pytest

from repro.workloads.datacenter import (
    DATACENTER_TRACE_NAMES,
    datacenter_profile,
    generate_datacenter_trace,
    trace_table_row,
)
from repro.workloads.request import IOKind
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_mixed_workload,
    generate_random_workload,
    generate_sequential_workload,
)
from repro.workloads.traces import (
    TraceFormatError,
    load_msr_trace,
    parse_msr_line,
    records_to_requests,
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

    def test_sequential_wraps_at_address_space(self):
        workload = generate_sequential_workload(
            num_requests=4, size_bytes=4 * KB, address_space_bytes=8 * KB
        )
        assert all(io.end_offset_bytes <= 8 * KB for io in workload)

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

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(num_requests=0),
            dict(size_bytes=-4096),
            dict(interarrival_ns=-1),
            dict(start_offset_bytes=-1),
        ],
    )
    def test_sequential_generator_validation(self, overrides):
        values = dict(num_requests=4, size_bytes=4 * KB)
        values.update(overrides)
        num_requests = values.pop("num_requests")
        size_bytes = values.pop("size_bytes")
        with pytest.raises(ValueError):
            generate_sequential_workload(num_requests, size_bytes, **values)


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


class TestMsrTraces:
    LINE = "128166372003061629,hm,0,Read,8192,4096,1331"

    def test_parse_line(self):
        record = parse_msr_line(self.LINE)
        assert record.kind is IOKind.READ
        assert record.offset_bytes == 8192
        assert record.size_bytes == 4096
        assert record.hostname == "hm"
        assert record.timestamp_ns == 128166372003061629 * 100

    def test_parse_write_line(self):
        record = parse_msr_line("1,host,2,Write,0,512,10")
        assert record.kind is IOKind.WRITE
        assert record.disk_number == 2

    @pytest.mark.parametrize(
        "line",
        [
            "too,few,fields",
            "1,h,0,Flush,0,512,10",
            "1,h,0,Read,0,0,10",
            "1,h,0,Read,-5,512,10",
            "x,h,0,Read,0,512,10",
        ],
    )
    def test_parse_rejects_malformed(self, line):
        with pytest.raises(TraceFormatError):
            parse_msr_line(line)

    def test_load_msr_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "\n".join(
                [
                    "100,host,0,Read,0,4096,10",
                    "not,a,valid,line",
                    "200,host,1,Write,8192,2048,20",
                    "300,host,0,Read,16384,4096,30",
                ]
            )
        )
        records = load_msr_trace(path)
        assert len(records) == 3
        only_disk0 = load_msr_trace(path, disk_number=0)
        assert len(only_disk0) == 2
        limited = load_msr_trace(path, max_records=1)
        assert len(limited) == 1

    def test_load_strict_mode_raises(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("garbage,line\n")
        with pytest.raises(TraceFormatError):
            load_msr_trace(path, skip_malformed=False)

    def test_records_to_requests_rebase_and_wrap(self):
        records = [
            parse_msr_line("1000,h,0,Read,10000,4096,1"),
            parse_msr_line("2000,h,0,Write,900000,4096,1"),
        ]
        requests = records_to_requests(records, address_space_bytes=65536)
        assert requests[0].arrival_ns == 0
        assert requests[1].arrival_ns == 100_000
        assert all(io.offset_bytes < 65536 for io in requests)

    def test_records_to_requests_time_scale(self):
        records = [
            parse_msr_line("0,h,0,Read,0,4096,1"),
            parse_msr_line("1000,h,0,Read,0,4096,1"),
        ]
        requests = records_to_requests(records, time_scale=0.5)
        assert requests[1].arrival_ns == 50_000

    def test_records_to_requests_empty(self):
        assert records_to_requests([]) == []

    def test_fixture_round_trip(self, tmp_path):
        """Load a fixture CSV and convert it end-to-end.

        Covers the filetime conversion (100ns ticks -> ns), malformed-line
        skipping, blank lines, the disk filter and the record->request
        round-trip in one pass.
        """
        path = tmp_path / "fixture.csv"
        path.write_text(
            "\n".join(
                [
                    "128166372003061629,srv,0,Read,8192,4096,1331",
                    "",
                    "totally,not,a,trace,line",
                    "128166372003071629,srv,1,Write,0,512,10",
                    "128166372003081629.0,srv,0,Write,16384,8192,20",
                ]
            )
        )
        records = load_msr_trace(path)
        assert len(records) == 3
        assert records[0].timestamp_ns == 128166372003061629 * 100
        assert records[2].timestamp_ns == 128166372003081629 * 100

        disk0 = load_msr_trace(path, disk_number=0)
        assert [record.offset_bytes for record in disk0] == [8192, 16384]

        requests = records_to_requests(disk0)
        assert requests[0].arrival_ns == 0
        # 20_000 ticks between the two disk-0 records = 2_000_000 ns.
        assert requests[1].arrival_ns == 2_000_000
        assert [(io.kind, io.offset_bytes, io.size_bytes) for io in requests] == [
            (IOKind.READ, 8192, 4096),
            (IOKind.WRITE, 16384, 8192),
        ]

    def test_wrap_clamp_respects_alignment(self):
        # Offset wraps to 4 KB below the end of a 64 KB space; the 16 KB
        # request must be clamped to the remaining 4 KB, not to 1 byte.
        records = [parse_msr_line("1000,h,0,Read,126976,16384,1")]
        requests = records_to_requests(records, address_space_bytes=65536)
        io = requests[0]
        assert io.offset_bytes == 61440
        assert io.size_bytes == 4096
        assert io.size_bytes % 512 == 0
        assert io.end_offset_bytes <= 65536

    def test_wrap_clamp_never_emits_sub_align_requests(self):
        # Even when the wrapped offset sits at the last aligned slot, the
        # clamped size stays a whole alignment unit.
        records = [parse_msr_line("1000,h,0,Write,65024,4096,1")]
        requests = records_to_requests(records, address_space_bytes=65536)
        assert requests[0].size_bytes == 512
        assert requests[0].offset_bytes + requests[0].size_bytes == 65536

    def test_wrap_aligns_offsets(self):
        # A misaligned trace offset is aligned down when wrapping.
        records = [parse_msr_line("1000,h,0,Read,66100,512,1")]
        requests = records_to_requests(
            records, address_space_bytes=65536, align_bytes=512
        )
        assert requests[0].offset_bytes == 512
        assert requests[0].offset_bytes % 512 == 0

    def test_equal_arrivals_keep_record_order(self):
        # time_scale=0 collapses every arrival to 0: the sort tie-break must
        # preserve the original record order, not reshuffle it.
        records = [
            parse_msr_line(f"{1000 + tick},h,0,Read,{tick * 4096},4096,1")
            for tick in range(8)
        ]
        requests = records_to_requests(records, time_scale=0.0)
        assert all(io.arrival_ns == 0 for io in requests)
        assert [io.offset_bytes for io in requests] == [tick * 4096 for tick in range(8)]

    def test_records_to_requests_validation(self):
        records = [parse_msr_line("1000,h,0,Read,0,4096,1")]
        with pytest.raises(ValueError):
            records_to_requests(records, align_bytes=0)
        with pytest.raises(ValueError):
            records_to_requests(records, address_space_bytes=1000, align_bytes=512)
