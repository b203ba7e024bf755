#!/usr/bin/env python
"""Trace one bursty run end to end: spans, counters, windowed tails.

A single bursty multi-tenant scenario runs under SPK3 with a memory trace
sink attached.  The script then reads the run back three ways:

* the ten longest spans (where did simulated time actually go?),
* the counter registry (how much work of each kind happened?),
* the per-window p99/p999 tail table (when was latency bad, not just
  how bad was it on average?).

It also writes the Chrome-trace JSON next to itself so the same run can be
opened visually at https://ui.perfetto.dev::

    python examples/trace_tour.py
"""

from pathlib import Path

from repro.experiments.spec import SimJob, WorkloadSpec
from repro.obs import MemoryTraceSink, format_tail_windows, write_chrome_trace
from repro.scenarios.library import bursty_multitenant_scenario
from repro.sim.config import SimulationConfig


def main() -> None:
    scenario = bursty_multitenant_scenario(requests_per_tenant=48, seed=11)
    job = SimJob(
        workload=WorkloadSpec.scenario(scenario),
        scheduler="SPK3",
        config=SimulationConfig.small(gc_enabled=True),
        key=("bursty", "SPK3"),
    )
    sink = MemoryTraceSink()
    result = job.execute(trace_sink=sink)

    print(
        f"workload {result.workload!r} under {result.scheduler}: "
        f"{result.completed_ios} I/Os, {result.events_processed} events, "
        f"{sink.total_records} trace records"
    )

    print("\ntop 10 longest spans:")
    print(f"{'name':<10} {'track':<12} {'start_us':>10} {'dur_us':>10}")
    for record in sink.longest(limit=10):
        print(
            f"{record.name:<10} {record.track:<12} "
            f"{record.start_ns / 1000.0:>10.1f} {record.duration_ns / 1000.0:>10.1f}"
        )

    print("\ncounters:")
    width = max(len(name) for name in result.counters)
    for name, value in result.counters.items():
        print(f"  {name:<{width}}  {value}")

    print("\nper-window tail latency:")
    print(format_tail_windows(result.latency_windows))

    out = Path(__file__).resolve().parent / "bursty.trace.json"
    write_chrome_trace(out, sink, {"scenario": scenario.name})
    print(f"\nwrote {out} - open it at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
