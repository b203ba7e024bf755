"""Tests for the metrics subpackage."""

import pytest

from repro.flash.commands import ParallelismClass
from repro.metrics.breakdown import ExecutionBreakdown
from repro.metrics.latency import (
    LatencyStats,
    bandwidth_kb_per_sec,
    iops,
    merge_latency_stats,
    percentile,
)
from repro.metrics.parallelism import FLPBreakdown
from repro.metrics.report import format_table
from repro.metrics.utilization import (
    IdlenessReport,
    UtilizationReport,
    merge_utilization_reports,
)


class TestLatencyHelpers:
    def test_bandwidth(self):
        # 1 MB in 1 ms -> 1 GB/s -> 1,048,576 KB/s... expressed in KB/s.
        assert bandwidth_kb_per_sec(1024 * 1024, 1_000_000) == pytest.approx(1024 * 1000)

    def test_bandwidth_zero_time(self):
        assert bandwidth_kb_per_sec(1024, 0) == 0.0

    def test_iops(self):
        assert iops(100, 1_000_000_000) == pytest.approx(100.0)
        assert iops(100, 0) == 0.0

    def test_percentile(self):
        values = [1, 2, 3, 4, 5]
        assert percentile(values, 0.0) == 1
        assert percentile(values, 1.0) == 5
        assert percentile(values, 0.5) == 3
        assert percentile([], 0.5) == 0.0

    def test_percentile_bad_fraction(self):
        with pytest.raises(ValueError):
            percentile([1], 2.0)

    def test_percentile_nearest_rank_even_length(self):
        # Regression: int(round(...)) used banker's rounding, so the p50 of
        # an even-length sample was biased upward (round(1.5) == 2).  The
        # ceil-based nearest rank of [1, 2, 3, 4] at p50 is rank 2 -> 2.
        values = [1, 2, 3, 4]
        assert percentile(values, 0.50) == 2
        assert percentile(values, 0.90) == 4
        assert percentile(values, 0.99) == 4
        evens = list(range(1, 101))
        assert percentile(evens, 0.50) == 50
        assert percentile(evens, 0.90) == 90
        assert percentile(evens, 0.99) == 99

    def test_percentile_nearest_rank_odd_length(self):
        values = [10, 20, 30, 40, 50]
        assert percentile(values, 0.50) == 30
        assert percentile(values, 0.90) == 50
        assert percentile(values, 0.99) == 50
        odds = list(range(1, 102))
        assert percentile(odds, 0.50) == 51
        assert percentile(odds, 0.90) == 91
        assert percentile(odds, 0.99) == 100

    def test_percentile_order_independent(self):
        assert percentile([4, 1, 3, 2], 0.5) == percentile([1, 2, 3, 4], 0.5)

    def test_percentile_inexact_float_rank(self):
        # 0.07 * 100 == 7.000000000000001 in binary; the rank must still be
        # 7, not ceil'd one too high to 8.
        assert percentile(list(range(1, 101)), 0.07) == 7

    def test_merge_latency_stats_is_count_weighted(self):
        few, many = LatencyStats(), LatencyStats()
        few.add(1000)
        for value in (100, 200, 300):
            many.add(value)
        merged = merge_latency_stats([few, many])
        assert merged.count == 4
        # Pooled mean, not the mean of the two means (which would be 600).
        assert merged.mean_ns == pytest.approx((1000 + 100 + 200 + 300) / 4)
        assert merged.percentile_ns(1.0) == 1000
        assert merge_latency_stats([]).count == 0
        # Merging must not alias or mutate the inputs.
        assert few.count == 1 and many.count == 3
        merged.add(5)
        assert few.count == 1 and many.count == 3

    def test_latency_stats(self):
        stats = LatencyStats()
        for value in (100, 200, 300):
            stats.add(value)
        assert stats.count == 3
        assert stats.mean_ns == pytest.approx(200.0)
        assert stats.min_ns == 100
        assert stats.max_ns == 300
        assert stats.percentile_ns(1.0) == 300

    def test_latency_stats_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyStats().add(-1)

    def test_latency_stats_empty(self):
        stats = LatencyStats()
        assert stats.mean_ns == 0.0
        assert stats.max_ns == 0


class TestFLPBreakdown:
    def test_record_and_fractions(self):
        flp = FLPBreakdown()
        flp.record(ParallelismClass.NON_PAL, 1)
        flp.record(ParallelismClass.PAL3, 4)
        assert flp.total_transactions == 2
        assert flp.total_requests == 5
        fractions = flp.transaction_fractions()
        assert fractions["NON-PAL"] == pytest.approx(0.5)
        assert fractions["PAL3"] == pytest.approx(0.5)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_request_fractions(self):
        flp = FLPBreakdown()
        flp.record(ParallelismClass.PAL1, 2)
        flp.record(ParallelismClass.PAL2, 2)
        fractions = flp.request_fractions()
        assert fractions["PAL1"] == pytest.approx(0.5)

    def test_empty_fractions(self):
        assert sum(FLPBreakdown().transaction_fractions().values()) == 0.0
        assert sum(FLPBreakdown().request_fractions().values()) == 0.0

    def test_high_flp_fraction(self):
        flp = FLPBreakdown()
        flp.record(ParallelismClass.NON_PAL, 1)
        flp.record(ParallelismClass.PAL3, 4)
        flp.record(ParallelismClass.PAL2, 2)
        assert flp.high_flp_fraction == pytest.approx(2 / 3)
        assert FLPBreakdown().high_flp_fraction == 0.0

    def test_coalescing_and_reduction(self):
        flp = FLPBreakdown()
        flp.record(ParallelismClass.PAL3, 4)
        assert flp.average_requests_per_transaction == 4.0
        assert flp.transaction_reduction_vs(4) == pytest.approx(0.75)
        assert flp.transaction_reduction_vs(0) == 0.0


class TestExecutionBreakdown:
    def test_fractions_sum_to_one(self):
        breakdown = ExecutionBreakdown(
            bus_operation_ns=100,
            bus_contention_ns=50,
            memory_operation_ns=200,
            total_chip_time_ns=1000,
        )
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["system_idle"] == pytest.approx(0.65)

    def test_empty_breakdown(self):
        assert sum(ExecutionBreakdown().fractions().values()) == 0.0
        assert ExecutionBreakdown().busy_fraction == 0.0

    def test_idle_never_negative(self):
        breakdown = ExecutionBreakdown(
            bus_operation_ns=600,
            bus_contention_ns=600,
            memory_operation_ns=600,
            total_chip_time_ns=1000,
        )
        assert breakdown.system_idle_ns == 0

    def test_addition(self):
        a = ExecutionBreakdown(10, 20, 30, 100)
        b = ExecutionBreakdown(1, 2, 3, 10)
        combined = a + b
        assert combined.bus_operation_ns == 11
        assert combined.total_chip_time_ns == 110

    def test_busy_fraction(self):
        breakdown = ExecutionBreakdown(100, 0, 400, 1000)
        assert breakdown.busy_fraction == pytest.approx(0.5)


class TestUtilizationReports:
    def test_mean_min_max(self):
        report = UtilizationReport()
        report.add((0, 0), 0.2)
        report.add((0, 1), 0.8)
        assert report.mean == pytest.approx(0.5)
        assert report.minimum == pytest.approx(0.2)
        assert report.maximum == pytest.approx(0.8)

    def test_clamping(self):
        report = UtilizationReport()
        report.add((0, 0), 1.7)
        report.add((0, 1), -0.3)
        assert report.maximum == 1.0
        assert report.minimum == 0.0

    def test_active_fraction_and_imbalance(self):
        report = UtilizationReport()
        report.add((0, 0), 0.0)
        report.add((0, 1), 0.5)
        assert report.active_chip_fraction == pytest.approx(0.5)
        assert report.imbalance() == pytest.approx(2.0)

    def test_empty_report(self):
        report = UtilizationReport()
        assert report.mean == 0.0
        assert report.active_chip_fraction == 0.0
        assert report.imbalance() == 0.0

    def test_idleness_from_measurements(self):
        report = UtilizationReport()
        report.add((0, 0), 0.75)
        report.add((0, 1), 0.25)
        idleness = IdlenessReport.from_measurements(report, [0.4, 0.2])
        assert idleness.inter_chip == pytest.approx(0.5)
        assert idleness.intra_chip == pytest.approx(0.3)
        assert idleness.combined == pytest.approx(0.4)

    def test_idleness_without_busy_chips(self):
        idleness = IdlenessReport.from_measurements(UtilizationReport(), [])
        assert idleness.intra_chip == 0.0

    def test_idleness_excludes_chips_that_did_no_work(self):
        # Regression: a chip that never went busy used to report 0.0 and be
        # kept by the filter, deflating the documented "average over chips
        # that did work"; it now reports the -1.0 sentinel and is excluded,
        # while a busy chip with fully covered dies contributes its real 0.0.
        report = UtilizationReport()
        report.add((0, 0), 0.5)
        report.add((0, 1), 0.5)
        report.add((0, 2), 0.0)
        idleness = IdlenessReport.from_measurements(report, [0.4, 0.2, -1.0])
        assert idleness.intra_chip == pytest.approx(0.3)
        perfect_busy = IdlenessReport.from_measurements(report, [0.4, 0.0, -1.0])
        assert perfect_busy.intra_chip == pytest.approx(0.2)

    def test_empty_imbalance_sentinel(self):
        # The docstring's "1.0 means perfectly balanced" only applies once
        # work exists; an empty (or all-idle) report returns the 0.0
        # "nothing measurable" sentinel, not 1.0.
        assert UtilizationReport().imbalance() == 0.0
        all_idle = UtilizationReport()
        all_idle.add((0, 0), 0.0)
        all_idle.add((0, 1), 0.0)
        assert all_idle.imbalance() == 0.0

    def test_add_clamps_and_overwrites(self):
        report = UtilizationReport()
        report.add((0, 0), 2.5)
        assert report.per_chip[(0, 0)] == 1.0
        report.add((0, 0), -1.0)
        assert report.per_chip[(0, 0)] == 0.0
        assert len(report.per_chip) == 1

    def test_merge_utilization_reports_namespaces_devices(self):
        first, second = UtilizationReport(), UtilizationReport()
        first.add((0, 0), 0.2)
        second.add((0, 0), 0.8)
        second.add((0, 1), 0.4)
        merged = merge_utilization_reports([first, second])
        assert len(merged.per_chip) == 3
        assert merged.per_chip[(0, 0, 0)] == 0.2
        assert merged.per_chip[(1, 0, 0)] == 0.8
        # Chip-count weighted: (0.2 + 0.8 + 0.4) / 3, not mean of means.
        assert merged.mean == pytest.approx(1.4 / 3)
        assert merge_utilization_reports([]).mean == 0.0
        # Inputs must stay untouched.
        assert len(first.per_chip) == 1 and len(second.per_chip) == 2


class TestFormatTable:
    def test_renders_columns(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        assert format_table([], title="nothing") == "nothing"
        assert format_table([]) == ""
