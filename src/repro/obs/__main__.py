"""``python -m repro.obs`` - inspect and export simulator traces.

Three subcommands:

``summarize PATH``
    Span counts, total time per span name, and the recorded counter registry
    of a trace artifact.

``top-spans PATH [-n N]``
    The N longest duration spans in a trace artifact.

``export --case NAME -o PATH [--tiny]``
    Run every job of a perf-suite case with tracing enabled and write one
    Chrome-trace/Perfetto JSON document (open it at https://ui.perfetto.dev).

``report --scenario NAME -o PATH [--scheduler S] [--chips N] [...]``
    Run a library scenario with tracing, health sampling and telemetry
    attribution enabled, and write a self-contained HTML/markdown run
    report: tenant table with tails, SLO verdicts, health sparklines,
    counters and top spans.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from repro.obs.export import load_trace, span_event_count, write_chrome_trace


def _load_events(path: str) -> Tuple[dict, List[dict]]:
    document = load_trace(path)
    events = [e for e in document.get("traceEvents", []) if isinstance(e, dict)]
    return document, events


def _cmd_summarize(args: argparse.Namespace) -> int:
    document, events = _load_events(args.path)
    counts: Dict[str, int] = {}
    totals: Dict[str, float] = {}
    for event in events:
        phase = event.get("ph")
        if phase not in ("X", "i"):
            continue
        name = event.get("name", "?")
        counts[name] = counts.get(name, 0) + 1
        totals[name] = totals.get(name, 0.0) + float(event.get("dur", 0.0))
    print(f"trace: {args.path}")
    print(f"events: {span_event_count(document)} (spans + instants)")
    print(f"{'name':<14} {'count':>8} {'total_us':>12}")
    for name in sorted(counts):
        print(f"{name:<14} {counts[name]:>8} {totals[name]:>12.1f}")
    other = document.get("otherData", {})
    counters = other.get("counters")
    if counters:
        print("\ncounters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            print(f"  {name:<{width}}  {counters[name]}")
    return 0


def _cmd_top_spans(args: argparse.Namespace) -> int:
    _, events = _load_events(args.path)
    spans = [e for e in events if e.get("ph") == "X"]
    spans.sort(key=lambda e: (-float(e.get("dur", 0.0)), float(e.get("ts", 0.0))))
    print(f"{'name':<10} {'track':<12} {'start_us':>12} {'dur_us':>10}  args")
    for event in spans[: args.count]:
        print(
            f"{event.get('name', '?'):<10} {_track(events, event):<12} "
            f"{float(event.get('ts', 0.0)):>12.1f} {float(event.get('dur', 0.0)):>10.1f}  "
            f"{event.get('args', {})}"
        )
    return 0


def _track(events: List[dict], span: dict) -> str:
    for event in events:
        if (
            event.get("ph") == "M"
            and event.get("name") == "thread_name"
            and event.get("pid") == span.get("pid")
            and event.get("tid") == span.get("tid")
        ):
            return str(event.get("args", {}).get("name", "?"))
    return "?"


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.obs.counters import merge_counter_snapshots
    from repro.obs.trace import MemoryTraceSink
    from repro.perf.suite import canonical_suite, tiny_suite

    suite = tiny_suite() if args.tiny else canonical_suite()
    by_name = {case.name: case for case in suite}
    case = by_name.get(args.case)
    if case is None:
        print(
            f"unknown case {args.case!r}; available: {', '.join(sorted(by_name))}",
            file=sys.stderr,
        )
        return 2
    sinks = []
    counters: Dict[str, int] = {}
    for job in case.jobs:
        sink = MemoryTraceSink()
        result = job.execute(trace_sink=sink)
        sinks.append((f"{result.workload} [{result.scheduler}]", sink))
        counters = merge_counter_snapshots([counters, result.counters])
    path = write_chrome_trace(
        args.output, sinks, {"case": case.name, "counters": counters}
    )
    total = sum(sink.total_records for _, sink in sinks)
    print(f"wrote {path} ({total} events from {len(sinks)} jobs)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import SLOThresholds, run_report, write_report
    from repro.obs.trace import MemoryTraceSink
    from repro.scenarios.library import (
        bursty_multitenant_scenario,
        diurnal_scenario,
        steady_scenario,
    )
    from repro.sim.config import SimulationConfig
    from repro.sim.ssd import SSDSimulator

    factories = {
        "steady": steady_scenario,
        "bursty": bursty_multitenant_scenario,
        "diurnal": diurnal_scenario,
    }
    factory = factories.get(args.scenario)
    if factory is None:
        print(
            f"unknown scenario {args.scenario!r}; available: "
            f"{', '.join(sorted(factories))}",
            file=sys.stderr,
        )
        return 2
    scenario = factory(seed=args.seed)
    sink = MemoryTraceSink()
    simulator = SSDSimulator(
        SimulationConfig.paper_scale(args.chips),
        args.scheduler,
        trace_sink=sink,
        health_interval_ns=args.health_interval_us * 1_000,
    )
    result = simulator.run(scenario.build(), workload_name=scenario.name)
    slo = SLOThresholds(
        mean_us=args.slo_mean_us, p99_us=args.slo_p99_us, p999_us=args.slo_p999_us
    )
    path = write_report(
        args.output,
        run_report(
            result,
            slo=slo if slo else None,
            sink=sink,
            title=f"Scenario report: {scenario.name} [{args.scheduler}]",
        ),
    )
    tenants = (
        ", ".join(result.attribution.tenants()) if result.attribution else "(none)"
    )
    print(
        f"wrote {path} ({result.completed_ios} I/Os, tenants: {tenants}, "
        f"{len(result.health)} health samples)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.obs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser("summarize", help="span counts + counters of a trace")
    summarize.add_argument("path", help="trace JSON file")
    summarize.set_defaults(func=_cmd_summarize)

    top = sub.add_parser("top-spans", help="longest duration spans of a trace")
    top.add_argument("path", help="trace JSON file")
    top.add_argument("-n", "--count", type=int, default=10)
    top.set_defaults(func=_cmd_top_spans)

    export = sub.add_parser("export", help="run a perf-suite case traced and export")
    export.add_argument("--case", required=True, help="perf-suite case name")
    export.add_argument("-o", "--output", required=True, help="output trace JSON path")
    export.add_argument(
        "--tiny", action="store_true", help="pick the case from the tiny suite instead"
    )
    export.set_defaults(func=_cmd_export)

    report = sub.add_parser(
        "report", help="run a library scenario and write an HTML/markdown report"
    )
    report.add_argument(
        "--scenario", required=True, help="library scenario (steady/bursty/diurnal)"
    )
    report.add_argument(
        "-o", "--output", required=True, help="report path (.html or .md)"
    )
    report.add_argument("--scheduler", default="SPK3", help="scheduler (default SPK3)")
    report.add_argument(
        "--chips", type=int, default=16, help="chips for the paper-scale config"
    )
    report.add_argument("--seed", type=int, default=11, help="scenario seed")
    report.add_argument(
        "--health-interval-us",
        type=int,
        default=50,
        help="health sampling cadence in simulated microseconds",
    )
    report.add_argument("--slo-mean-us", type=float, default=None)
    report.add_argument("--slo-p99-us", type=float, default=None)
    report.add_argument("--slo-p999-us", type=float, default=None)
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke tests
    raise SystemExit(main())
