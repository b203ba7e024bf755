"""Tests for the windowed (streaming) metrics path.

The collector's ``history="windowed"`` mode is what makes long trace
replays memory-flat: aggregate latency numbers stay exact while per-sample
history (time series, percentile population) is bounded by the window.
These tests pin three contracts:

* parity - windowed aggregates match the full-history collector exactly;
* truncation - per-sample surfaces are capped at the window;
* flatness - peak allocation during collection does not grow with the
  number of completions (the acceptance criterion for day-long replays).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.metrics.collector import MetricsCollector
from repro.metrics.latency import LatencyStats, StreamingLatencyStats
from repro.sim.config import SimulationConfig
from repro.sim.ssd import SSDSimulator
from repro.workloads.request import IOKind, IORequest
from repro.workloads.synthetic import generate_random_workload

KB = 1024


def make_ios(count):
    return [
        IORequest(
            kind=IOKind.READ if i % 2 else IOKind.WRITE,
            offset_bytes=(i % 64) * 4 * KB,
            size_bytes=4 * KB,
            arrival_ns=i * 1_000,
        )
        for i in range(count)
    ]


class TestStreamingLatencyStats:
    def test_aggregates_exact_across_window_wrap(self):
        window = 8
        streaming = StreamingLatencyStats(window_size=window)
        full = LatencyStats()
        samples = [50, 10, 900, 3, 77, 77, 1000, 4, 2, 60, 31, 500]
        assert len(samples) > window
        for value in samples:
            streaming.add(value)
            full.add(value)
        assert streaming.count == full.count
        assert streaming.mean_ns == pytest.approx(full.mean_ns)
        assert streaming.min_ns == full.min_ns
        assert streaming.max_ns == full.max_ns

    def test_samples_window_is_most_recent_oldest_first(self):
        streaming = StreamingLatencyStats(window_size=4)
        for value in range(1, 11):
            streaming.add(value)
        assert streaming.samples_ns == [7, 8, 9, 10]

    def test_samples_before_wrap(self):
        streaming = StreamingLatencyStats(window_size=8)
        for value in (5, 3, 9):
            streaming.add(value)
        assert streaming.samples_ns == [5, 3, 9]

    def test_percentile_over_window(self):
        streaming = StreamingLatencyStats(window_size=4)
        for value in (1_000_000, 1, 2, 3, 4):  # the huge sample fell out
            streaming.add(value)
        assert streaming.percentile_ns(1.0) == 4
        assert streaming.max_ns == 1_000_000  # but max stays exact

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            StreamingLatencyStats().add(-1)

    def test_merged_with_concatenates_windows(self):
        a = StreamingLatencyStats(window_size=4)
        b = LatencyStats()
        for value in (1, 2):
            a.add(value)
        b.add(3)
        merged = a.merged_with(b)
        assert isinstance(merged, LatencyStats)
        assert sorted(merged.samples_ns) == [1, 2, 3]


class TestCollectorModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="history"):
            MetricsCollector(history="forever")

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsCollector(history="windowed", window=0)

    def test_windowed_aggregates_match_full(self):
        full = MetricsCollector()
        windowed = MetricsCollector(history="windowed", window=16)
        for i, io in enumerate(make_ios(100)):
            for collector in (full, windowed):
                collector.on_io_arrival(io)
                collector.on_io_complete(io, io.arrival_ns + 40_000 + (i % 9) * 500)
        assert windowed.completed_ios == full.completed_ios
        assert windowed.completed_reads == full.completed_reads
        assert windowed.total_bytes == full.total_bytes
        assert windowed.latency.count == full.latency.count
        assert windowed.latency.mean_ns == pytest.approx(full.latency.mean_ns)
        assert windowed.latency.min_ns == full.latency.min_ns
        assert windowed.latency.max_ns == full.latency.max_ns
        assert windowed.makespan_ns == full.makespan_ns

    def test_windowed_time_series_is_truncated_to_window(self):
        window = 16
        collector = MetricsCollector(history="windowed", window=window)
        ios = make_ios(50)
        for io in ios:
            collector.on_io_arrival(io)
            collector.on_io_complete(io, io.arrival_ns + 10_000)
        series = collector.time_series
        assert len(series) == window
        # The retained points are the most recent completions, in order.
        assert [point.io_id for point in series] == [io.io_id for io in ios[-window:]]

    def test_full_time_series_unbounded(self):
        collector = MetricsCollector()
        for io in make_ios(50):
            collector.on_io_arrival(io)
            collector.on_io_complete(io, io.arrival_ns + 10_000)
        assert len(collector.time_series) == 50


class TestSimulatorWindowedParity:
    def run_pair(self, config, n=48):
        def fresh():
            return generate_random_workload(
                num_requests=n,
                size_bytes=16 * KB,
                address_space_bytes=16 * 1024 * KB,
                read_fraction=0.6,
                interarrival_ns=2_000,
                seed=11,
            )

        full = SSDSimulator(config, "SPK3").run(fresh())
        windowed = SSDSimulator(
            config, "SPK3", metrics_history="windowed", metrics_window=8
        ).run(fresh())
        return full, windowed

    def test_windowed_run_matches_full_aggregates(self, test_config):
        full, windowed = self.run_pair(test_config)
        assert windowed.completed_ios == full.completed_ios
        assert windowed.makespan_ns == full.makespan_ns
        assert windowed.latency.count == full.latency.count
        assert windowed.latency.mean_ns == pytest.approx(full.latency.mean_ns)
        assert windowed.latency.max_ns == full.latency.max_ns
        assert windowed.transactions == full.transactions

    def test_default_mode_is_full_history(self, test_config):
        simulator = SSDSimulator(test_config, "SPK3")
        assert isinstance(simulator.metrics.latency, LatencyStats)


class TestPeakMemoryFlatness:
    """Peak allocation must not grow with trace length in windowed mode."""

    def collector_peak(self, n):
        ios = make_ios(n)
        collector = MetricsCollector(history="windowed", window=256)
        # Normalise cyclic-GC state before tracing: where the collection
        # thresholds fall inside the loop depends on how many allocations
        # earlier tests made, and a mid-loop pass shifts the traced peak by
        # more than the flatness margin.
        gc.collect()
        tracemalloc.start()
        tracemalloc.reset_peak()
        for i, io in enumerate(ios):
            collector.on_io_arrival(io)
            collector.on_io_complete(io, io.arrival_ns + 50_000 + (i % 7) * 1_000)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    def test_windowed_collector_peak_flat_at_10x(self):
        short = self.collector_peak(2_000)
        long = self.collector_peak(20_000)
        assert long < short * 1.10, (
            f"windowed collector peak grew {long / short - 1:.1%} "
            f"for a 10x-longer completion stream"
        )

    def sim_peak(self, n, history):
        # figure06-style replay: random mixed I/O over a small, GC-active
        # device.  The workload is built (and sized) outside the traced
        # region - the measurement is the event loop's own allocations.
        workload = generate_random_workload(
            num_requests=n,
            size_bytes=16 * KB,
            address_space_bytes=1024 * KB,
            read_fraction=0.5,
            interarrival_ns=2_000,
            seed=11,
        )
        simulator = SSDSimulator(
            SimulationConfig.small(gc_enabled=True),
            "SPK3",
            metrics_history=history,
            metrics_window=256,
        )
        tracemalloc.start()
        tracemalloc.reset_peak()
        simulator.run(workload)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    def test_windowed_run_memory_flat_relative_to_full(self):
        # A 10x-longer replay in full-history mode grows by the retained
        # history; in windowed mode the only in-run O(n) allocations left
        # are the completion timestamps stamped onto the caller's own
        # request objects.  Windowed growth must be a small fraction of
        # full-history growth, and the long windowed run must peak well
        # below the long full-history run.
        short_full = self.sim_peak(400, "full")
        long_full = self.sim_peak(4_000, "full")
        short_windowed = self.sim_peak(400, "windowed")
        long_windowed = self.sim_peak(4_000, "windowed")
        full_growth = long_full - short_full
        windowed_growth = long_windowed - short_windowed
        assert full_growth > 0, "full-history growth should be measurable"
        assert windowed_growth < full_growth / 3, (
            f"windowed growth {windowed_growth} vs full growth {full_growth}"
        )
        assert long_windowed < long_full * 0.6
