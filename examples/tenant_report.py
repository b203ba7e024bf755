#!/usr/bin/env python
"""Attributed telemetry tour: per-tenant stats, health samples, run report.

One bursty multi-tenant scenario runs under SPK3 with tracing, periodic
health sampling and telemetry attribution all enabled.  The script then:

* prints the per-tenant/per-phase attribution table (who caused which
  latency?) and verifies it reconciles exactly with the aggregate metrics,
* prints a unicode sparkline per health metric (was the device ever
  starved for free blocks? how deep did the queue get?),
* writes a self-contained HTML run report next to itself - the same
  document ``python -m repro.obs report`` produces::

    python examples/tenant_report.py
"""

from pathlib import Path

from repro.metrics.attribution import reconcile_attribution
from repro.obs.report import (
    SLOThresholds,
    run_report,
    slo_verdicts,
    sparkline,
    write_report,
)
from repro.obs.trace import MemoryTraceSink
from repro.scenarios.library import bursty_multitenant_scenario
from repro.sim.config import SimulationConfig
from repro.sim.ssd import SSDSimulator


def main() -> None:
    scenario = bursty_multitenant_scenario(requests_per_tenant=48, seed=11)
    sink = MemoryTraceSink()
    simulator = SSDSimulator(
        SimulationConfig.small(gc_enabled=True),
        "SPK3",
        trace_sink=sink,
        health_interval_ns=50_000,  # sample health every 50 simulated us
    )
    result = simulator.run(scenario.build(), workload_name=scenario.name)

    attribution = result.attribution
    assert attribution is not None, "scenario requests carry tenant tags"
    print(
        f"workload {result.workload!r} under {result.scheduler}: "
        f"{result.completed_ios} I/Os from tenants "
        f"{', '.join(attribution.tenants())}"
    )

    print("\nper-tenant / per-phase attribution:")
    header = f"{'phase':>5} {'tenant':<10} {'ios':>5} {'mb':>7} {'mean_us':>9} {'p99_us':>9}"
    print(header)
    for row in attribution.rows():
        print(
            f"{row['phase']:>5} {row['tenant']:<10} {row['ios']:>5} "
            f"{row['mb']:>7} {row['mean_us']:>9} {row['p99_us']:>9}"
        )
    problems = reconcile_attribution(result)
    print(f"reconciliation: {'OK' if not problems else problems}")

    print("\nhealth series ({} samples at 50us cadence):".format(len(result.health)))
    for attr, label in (
        ("queue_depth", "queue depth"),
        ("inflight_ios", "inflight I/Os"),
        ("min_free_blocks", "min free blocks"),
        ("chip_busy_fraction", "busy chips"),
    ):
        values = [getattr(sample, attr) for sample in result.health]
        print(f"  {label:<16} {sparkline(values)}")

    slo = SLOThresholds(p99_us=5_000.0)
    print("\nSLO verdicts (p99 < 5ms):")
    for check in slo_verdicts(result, slo):
        status = "PASS" if check.ok else "FAIL"
        print(
            f"  {check.tenant:<10} {check.metric} "
            f"{check.actual_us:.1f}us vs {check.limit_us:.1f}us  {status}"
        )

    out = Path(__file__).resolve().parent / "tenant_report.html"
    write_report(
        out, run_report(result, slo=slo, sink=sink, title=f"Tenant report: {scenario.name}")
    )
    print(f"\nwrote {out} - open it in any browser")


if __name__ == "__main__":
    main()
