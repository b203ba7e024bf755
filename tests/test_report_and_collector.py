"""Tests for the metrics collector, the result container and the
pure summary helpers of the experiment artifacts."""

import pytest

from repro.experiments import figures
from repro.experiments.runner import ratios
from repro.flash.chip import FlashChip
from repro.flash.channel import Channel
from repro.flash.commands import FlashOp, ParallelismClass, TransactionKind
from repro.flash.geometry import PhysicalPageAddress
from repro.flash.request import MemoryRequest
from repro.flash.transaction import FlashTransaction
from repro.metrics.breakdown import ExecutionBreakdown
from repro.metrics.collector import MetricsCollector
from repro.metrics.latency import LatencyStats
from repro.metrics.parallelism import FLPBreakdown
from repro.metrics.report import SimulationResult
from repro.metrics.utilization import IdlenessReport, UtilizationReport
from repro.workloads.request import IOKind, IORequest


def make_transaction(num_requests=2, is_gc=False, parallelism=ParallelismClass.PAL2):
    requests = [
        MemoryRequest(
            io_id=1,
            op=FlashOp.READ,
            lpn=i,
            size_bytes=2048,
            address=PhysicalPageAddress(0, 0, i % 2, 0, 0, i),
        )
        for i in range(num_requests)
    ]
    txn = FlashTransaction(
        chip_key=(0, 0),
        requests=requests,
        kind=TransactionKind.INTERLEAVE,
        parallelism=parallelism,
    )
    txn.is_gc = is_gc
    txn.cell_time_ns = 1000
    return txn


class TestMetricsCollector:
    def test_io_lifecycle(self):
        collector = MetricsCollector()
        io = IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=4096, arrival_ns=100)
        collector.on_io_arrival(io)
        collector.on_io_complete(io, 1100)
        assert collector.completed_ios == 1
        assert collector.total_bytes == 4096
        assert collector.makespan_ns == 1000
        assert collector.latency.mean_ns == 1000
        assert len(collector.time_series) == 1

    def test_write_accounting(self):
        collector = MetricsCollector()
        io = IORequest(kind=IOKind.WRITE, offset_bytes=0, size_bytes=2048, arrival_ns=0)
        collector.on_io_arrival(io)
        collector.on_io_complete(io, 50)
        assert collector.completed_ios == 1
        assert collector.total_bytes == 2048
        assert collector.latency.samples_ns == [50]

    def test_time_series_keeps_every_completion(self):
        collector = MetricsCollector()
        ios = [
            IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=4096, arrival_ns=i * 1_000)
            for i in range(50)
        ]
        for io in ios:
            collector.on_io_arrival(io)
            collector.on_io_complete(io, io.arrival_ns + 10_000)
        assert [point.io_id for point in collector.time_series] == [io.io_id for io in ios]

    def test_transaction_accounting_separates_gc(self):
        collector = MetricsCollector()
        collector.on_transaction_complete(make_transaction(num_requests=3))
        collector.on_transaction_complete(make_transaction(num_requests=1, is_gc=True))
        assert collector.memory_requests_served == 3
        assert collector.flp.total_transactions == 1
        assert collector.gc_transactions == 1
        assert collector.gc_time_ns == 1000

    def test_queue_stall_hook(self):
        collector = MetricsCollector()
        collector.on_queue_stall(500)
        collector.on_queue_stall(0)
        assert collector.queue_stall_time_ns == 500
        assert collector.stalled_requests == 1

    def test_makespan_empty(self):
        assert MetricsCollector().makespan_ns == 0

    def test_utilization_and_idleness_reports(self, small_geometry):
        collector = MetricsCollector()
        io = IORequest(kind=IOKind.READ, offset_bytes=0, size_bytes=2048, arrival_ns=0)
        collector.on_io_arrival(io)
        collector.on_io_complete(io, 1000)
        chips = {key: FlashChip(key, small_geometry) for key in small_geometry.iter_chip_keys()}
        first = chips[(0, 0)]
        # What the controller records for one 500 ns transaction.
        first.stats.busy_time_ns = 500
        first.stats.cell_time_ns = 400
        first.stats.bus_time_ns = 50
        first.stats.bus_wait_ns = 10
        first.stats.die_active_time_ns = 400
        utilization = collector.utilization_report(chips)
        assert utilization.per_chip[(0, 0)] == pytest.approx(0.5)
        idleness = collector.idleness_report(chips)
        assert 0.0 < idleness.inter_chip < 1.0
        breakdown = collector.execution_breakdown(chips, {0: Channel(0)})
        assert breakdown.memory_operation_ns == 400
        assert breakdown.total_chip_time_ns == 1000 * len(chips)


def make_result(**overrides):
    latency = LatencyStats()
    latency.add(1000)
    latency.add(3000)
    utilization = UtilizationReport()
    utilization.add((0, 0), 0.5)
    flp = FLPBreakdown()
    flp.record(ParallelismClass.PAL3, 4)
    flp.record(ParallelismClass.NON_PAL, 1)
    values = dict(
        scheduler="SPK3",
        workload="unit",
        num_ios=2,
        completed_ios=2,
        total_bytes=1024 * 1024,
        makespan_ns=1_000_000,
        latency=latency,
        utilization=utilization,
        idleness=IdlenessReport(inter_chip=0.3, intra_chip=0.2),
        flp=flp,
        breakdown=ExecutionBreakdown(100, 50, 300, 1000),
        queue_stall_time_ns=100_000,
        memory_requests_composed=5,
        memory_requests_served=5,
        transactions=2,
        gc_transactions=0,
        gc_time_ns=0,
    )
    values.update(overrides)
    return SimulationResult(**values)


class TestSimulationResult:
    def test_bandwidth_and_iops(self):
        result = make_result()
        assert result.bandwidth_kb_s == pytest.approx(1024 * 1000)
        assert result.iops == pytest.approx(2000)

    def test_latency_and_stall(self):
        result = make_result()
        assert result.avg_latency_ns == pytest.approx(2000)
        assert result.mean_backlog_requests == pytest.approx(0.1)

    def test_mean_backlog_exceeds_one_when_requests_wait_together(self):
        # Three requests stalled for the whole 1 ms makespan, plus one for half.
        result = make_result(queue_stall_time_ns=3_500_000)
        assert result.mean_backlog_requests == 3.5
        assert result.summary_row()["mean_backlog"] == 3.5

    def test_idleness_properties(self):
        result = make_result()
        assert result.inter_chip_idleness == 0.3
        assert result.intra_chip_idleness == 0.2

    def test_transaction_reduction_and_coalescing(self):
        result = make_result()
        assert result.transaction_reduction == pytest.approx(1 - 2 / 5)
        assert result.coalescing_degree == pytest.approx(2.5)

    def test_zero_makespan_guards(self):
        result = make_result(makespan_ns=0)
        assert result.bandwidth_kb_s == 0.0
        assert result.iops == 0.0
        assert result.mean_backlog_requests == 0.0

    def test_summary_row(self):
        row = make_result().summary_row()
        assert row["scheduler"] == "SPK3"
        assert row["workload"] == "unit"
        assert row["transactions"] == 2


class TestExperimentHelperFunctions:
    def make_fig10_rows(self):
        return [
            {"trace": "t", "scheduler": "VAS", "bandwidth_kb_s": 100.0, "iops": 10, "avg_latency_ns": 1000, "queue_stall_norm": 1.0},
            {"trace": "t", "scheduler": "PAS", "bandwidth_kb_s": 150.0, "iops": 15, "avg_latency_ns": 800, "queue_stall_norm": 0.8},
            {"trace": "t", "scheduler": "SPK3", "bandwidth_kb_s": 250.0, "iops": 25, "avg_latency_ns": 400, "queue_stall_norm": 0.2},
        ]

    def test_speedups_and_latency_reduction(self):
        rows = self.make_fig10_rows()
        assert figures.speedups_over(rows, "VAS", "SPK3") == {"t": 2.5}
        assert figures.latency_reduction(rows, "VAS", "SPK3") == {"t": 0.6}

    def test_ratios_pair_each_row_with_its_baseline(self):
        rows = [
            {"trace": "a", "scheduler": "VAS", "bw": 100.0},
            {"trace": "a", "scheduler": "SPK3", "bw": 250.0},
            {"trace": "a", "scheduler": "PAS", "bw": 150.0},
            {"trace": "b", "scheduler": "VAS", "bw": 0.0},
            {"trace": "b", "scheduler": "SPK3", "bw": 50.0},
            {"trace": "c", "scheduler": "SPK3", "bw": 70.0},
        ]
        # Trace b's baseline is zero and trace c has none: both are left out.
        assert ratios(rows, "bw", "scheduler", "VAS", ("trace",)) == {
            ("a", "SPK3"): 2.5,
            ("a", "PAS"): 1.5,
        }

    def test_figure06_averages(self):
        rows = [
            {"trace": "a", "utilization_vas_pct": 10.0, "utilization_pas_pct": 20.0, "utilization_potential_pct": 40.0},
            {"trace": "b", "utilization_vas_pct": 30.0, "utilization_pas_pct": 40.0, "utilization_potential_pct": 60.0},
        ]
        averages = figures.utilization_averages(rows)
        assert averages["utilization_vas_pct"] == 20.0
        assert averages["utilization_potential_pct"] == 50.0

    def test_figure11_average_reduction(self):
        rows = [
            {"trace": "a", "scheduler": "VAS", "inter_chip_idleness_pct": 50.0, "intra_chip_idleness_pct": 40.0},
            {"trace": "a", "scheduler": "SPK3", "inter_chip_idleness_pct": 25.0, "intra_chip_idleness_pct": 30.0},
        ]
        assert figures.mean_reduction(rows, "inter_chip_idleness_pct", "VAS", "SPK3") == 0.5

    def test_figure16_reduction_vs_vas(self):
        rows = [
            {"num_chips": 64, "transfer_kb": 16, "scheduler": "VAS", "transactions": 100},
            {"num_chips": 64, "transfer_kb": 16, "scheduler": "SPK3", "transactions": 50},
        ]
        assert figures.reduction_vs_vas(rows)[(64, 16, "SPK3")] == 0.5

    def test_figure17_degradation_and_advantage(self):
        rows = [
            {"num_chips": 64, "transfer_kb": 16, "scheduler": "VAS", "state": "pristine", "bandwidth_kb_s": 200.0},
            {"num_chips": 64, "transfer_kb": 16, "scheduler": "VAS", "state": "fragmented", "bandwidth_kb_s": 100.0},
            {"num_chips": 64, "transfer_kb": 16, "scheduler": "SPK3", "state": "pristine", "bandwidth_kb_s": 400.0},
            {"num_chips": 64, "transfer_kb": 16, "scheduler": "SPK3", "state": "fragmented", "bandwidth_kb_s": 250.0},
        ]
        degradation = figures.gc_degradation(rows)
        assert degradation[(64, 16, "VAS")] == 0.5
        advantage = figures.fragmented_advantage(rows)
        assert advantage[(64, 16)] == 2.5
