"""Fleet sweep: fleet size x placement policy x scenario.

Beyond-the-paper experiment on the :mod:`repro.fleet` layer: the same
multi-tenant scenario is served by fleets of growing size built from a
cycling device-zoo node mix, under every placement policy in the sweep.
One row per cell reports cluster throughput, fleet-tail latency, SLO
violations, placement balance (byte/IOPS imbalance across nodes) and
admission/background activity - the questions the single-array experiments
cannot ask: does least-loaded placement actually beat hashing once nodes
are heterogeneous?  How much tail latency do admission limits buy?

Every cell expands into ordinary fingerprinted device jobs, so
``--cache-dir`` memoizes across re-runs, ``--backend process``
parallelises the whole sweep bit-identically, and ``--report`` writes the
full fleet report of one chosen cell.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.engine import (
    ExecutionEngine,
    add_engine_arguments,
    engine_from_args,
)
from repro.fleet import (
    BackgroundJob,
    FleetNodeSpec,
    FleetSpec,
    TenantPolicy,
    run_fleet,
)
from repro.fleet.result import FleetResult
from repro.metrics.report import format_table
from repro.obs.report import SLOThresholds, fleet_report, write_report
from repro.scenarios.library import fleet_scenario
from repro.scenarios.scenario import Scenario

#: Placement policies swept by default (the full set lives in
#: :data:`repro.fleet.FLEET_PLACEMENT_POLICIES`).
DEFAULT_PLACEMENTS = ("round-robin", "least-loaded", "hash")

#: Fleet sizes swept by default.
DEFAULT_FLEET_SIZES = (2, 3, 4)

#: Node device mix, cycled across slots: small SLC, mid MLC, large TLC.
DEFAULT_ZOO_CYCLE = ("slc-gen1", "mlc-gen1", "tlc-gen3")

#: Generous default tail SLO so verdict accounting is exercised without
#: drowning the table in failures on slow zoo devices.
DEFAULT_SLO = SLOThresholds(p99_us=250_000.0)


def default_fleet_nodes(
    size: int, *, zoo_cycle: Sequence[str] = DEFAULT_ZOO_CYCLE
) -> Tuple[FleetNodeSpec, ...]:
    """``size`` single-device nodes cycling through the zoo mix."""
    return tuple(
        FleetNodeSpec(name=f"node{index}", devices=(zoo_cycle[index % len(zoo_cycle)],))
        for index in range(size)
    )


def build_fleet_spec(
    scenario: Scenario,
    size: int,
    placement: str,
    *,
    zoo_cycle: Sequence[str] = DEFAULT_ZOO_CYCLE,
    slo: Optional[SLOThresholds] = DEFAULT_SLO,
    with_background: bool = True,
) -> FleetSpec:
    """One sweep cell: a sized, policy-bound fleet serving ``scenario``.

    The key-value tenant is rate-paced and the log writer depth-limited, so
    every cell exercises both admission mechanisms; a scrub job rides on
    the first node (and a GC-debt job on the second, when present) so the
    background scheduler always has valleys to fill.
    """
    nodes = default_fleet_nodes(size, zoo_cycle=zoo_cycle)
    background: Tuple[BackgroundJob, ...] = ()
    if with_background:
        jobs = [BackgroundJob(kind="scrub", node=nodes[0].name, num_requests=8)]
        if len(nodes) > 1:
            jobs.append(
                BackgroundJob(kind="gc-debt", node=nodes[1].name, num_requests=8)
            )
        background = tuple(jobs)
    return FleetSpec(
        name=f"{scenario.name}-x{size}-{placement}",
        scenario=scenario,
        nodes=nodes,
        placement=placement,
        tenant_policies=(
            ("kv", TenantPolicy(max_iops=250_000.0)),
            ("logger", TenantPolicy(max_queue_depth=8)),
        ),
        default_slo=slo,
        background=background,
    )


def run_fleet_sweep(
    fleet_sizes: Sequence[int] = DEFAULT_FLEET_SIZES,
    placements: Sequence[str] = DEFAULT_PLACEMENTS,
    scenarios: Optional[Sequence[Scenario]] = None,
    *,
    zoo_cycle: Sequence[str] = DEFAULT_ZOO_CYCLE,
    requests_per_tenant: int = 32,
    seed: int = 11,
    engine: Optional[ExecutionEngine] = None,
) -> Tuple[List[Dict[str, object]], Dict[Tuple[str, int, str], FleetResult]]:
    """Run the sweep; one summary row plus the full result per cell.

    Returns ``(rows, results)`` with results keyed ``(scenario, size,
    placement)`` so callers can drill into any cell (write its report,
    reconcile it, compare placements).
    """
    if scenarios is None:
        scenarios = (fleet_scenario(requests_per_tenant=requests_per_tenant, seed=seed),)
    engine = engine or ExecutionEngine()
    rows: List[Dict[str, object]] = []
    results: Dict[Tuple[str, int, str], FleetResult] = {}
    for scenario in scenarios:
        for size in fleet_sizes:
            for placement in placements:
                spec = build_fleet_spec(
                    scenario, size, placement, zoo_cycle=zoo_cycle
                )
                fleet = run_fleet(spec, engine)
                results[(scenario.name, size, placement)] = fleet
                rows.append({"scenario": scenario.name, **fleet.summary_row()})
    return rows, results


def main(argv: Optional[Sequence[str]] = None) -> None:
    """Print the fleet sweep table (and optionally one cell's full report)."""
    parser = argparse.ArgumentParser(
        description="Fleet sweep: fleet size x placement policy x scenario"
    )
    add_engine_arguments(parser)
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_FLEET_SIZES),
        help="fleet sizes (node counts) to sweep",
    )
    parser.add_argument(
        "--placements",
        nargs="+",
        default=list(DEFAULT_PLACEMENTS),
        help="placement policies to sweep",
    )
    parser.add_argument(
        "--requests-per-tenant",
        type=int,
        default=32,
        help="scenario scale knob (requests per tenant)",
    )
    parser.add_argument("--seed", type=int, default=11, help="scenario seed")
    parser.add_argument(
        "--report",
        default=None,
        help="write the largest cell's fleet report here (.md or .html)",
    )
    args = parser.parse_args(argv)
    engine = engine_from_args(args)

    rows, results = run_fleet_sweep(
        tuple(args.sizes),
        tuple(args.placements),
        requests_per_tenant=args.requests_per_tenant,
        seed=args.seed,
        engine=engine,
    )
    print(format_table(rows, title="Fleet sweep: size x placement"))
    if args.report:
        key = max(results, key=lambda k: (k[1], k[2]))
        path = write_report(args.report, fleet_report(results[key]))
        print(f"\nwrote fleet report for {key} to {path}")


if __name__ == "__main__":
    main()
