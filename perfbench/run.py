"""End-to-end and per-layer benchmark of the Sprinkler SSD simulator.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 7 --seconds 30 --trace 0

One process runs one workload, serially: it imports ``repro`` from ``src/``
and loads the device zoo, then repeats the workload's whole spec-to-result
pass (a fixed job list, closed loop with one client) until ``--seconds``
have elapsed, each pass on a fresh, empty result cache.  Every pass is
checked - each job must complete all of its I/Os and bytes, the fleet must
reconcile, and the result digest must equal the first pass's - and a job
failing any check counts as a failed operation.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: host
wall and event-loop rate of the best pass, the median pass's set-up, the
process's peak RSS, and the simulated device metrics (pooled over the SPK3
jobs, or over the fleet), which are deterministic for a seed.  ``--trace 1``
runs one untraced pass and then traced passes (see ``tracing.py``) and
reports the per-layer metrics mapped in ``layers.json``; the traced digests
must equal the untraced one.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
# Without the sources next to it the benchmark cannot run: the import below
# then fails, and the run exits non-zero without printing a result.
sys.path.insert(0, str(ROOT / "src"))

from repro.devices.registry import default_registry  # noqa: E402
from repro.flash.commands import ParallelismClass  # noqa: E402
from repro.metrics.latency import percentile  # noqa: E402
from repro.obs.counters import merge_counter_snapshots  # noqa: E402
from repro.sim.config import stable_fingerprint  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Scratch space for the per-pass result caches, inside the checkout.
WORK_DIR = ROOT / ".perfbench_work"
#: Every run measures at least this many passes, however long they take.
MIN_PASSES = 3
#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 7
MB = 1024 * 1024


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@dataclass
class Pass:
    """What is kept of one measured pass: its checks and its numbers."""

    failed: int
    digest: str = ""
    messages: List[str] = field(default_factory=list)
    #: ``wall_s``/``setup_s``/``events_per_s`` (empty when the pass raised).
    timings: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced passes only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Per-layer span table (traced passes only).
    table: str = ""
    #: The results themselves, kept for the first good pass only.
    output: object = None


def measure(workload, seed: int, expected, reference: Optional[str], *, layers: bool) -> Pass:
    """Run one spec-to-result pass on a fresh result cache and check it."""
    gc.collect()  # start every pass from the same collector state
    tracer = Tracer()
    cache_dir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        with instrument(tracer, layers=layers):
            with tracer.span("rep"):
                output = workload.run(seed, cache_dir, tracer.span)
        result_bytes = sum(path.stat().st_size for path in Path(cache_dir).glob("*.pkl"))
    except Exception:  # a raising pass fails every job; the traceback is reported
        return Pass(failed=len(expected), messages=[traceback.format_exc()])
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    run = check(output, expected, reference)
    run.timings = pass_timings(tracer, output.results)
    if layers:
        run.layers = layer_metrics(tracer, output, result_bytes)
        run.table = layer_table(tracer)
    run.output = output
    return run


def check(output, expected, reference: Optional[str]) -> Pass:
    """Count the failed jobs of a pass; ``expected`` is ``[(ios, bytes)]`` per job."""
    results = output.results
    run = Pass(failed=0, digest=stable_fingerprint(("perf-results", tuple(results))))
    if len(results) != len(expected):
        run.failed = len(expected)
        run.messages.append(f"{len(results)} results for {len(expected)} jobs")
        return run
    bad = set()
    for index, (result, (ios, volume)) in enumerate(zip(results, expected)):
        if result.completed_ios != result.num_ios or result.num_ios != ios:
            bad.add(index)
            run.messages.append(
                f"job {index}: {result.completed_ios}/{result.num_ios} I/Os, expected {ios}"
            )
        if result.total_bytes != volume:
            bad.add(index)
            run.messages.append(f"job {index}: {result.total_bytes} bytes, expected {volume}")
    if output.problems:
        bad.update(range(len(expected)))
        run.messages.extend(output.problems)
    if reference is not None and run.digest != reference:
        bad.update(range(len(expected)))
        run.messages.append(f"digest {run.digest} differs from {reference}")
    run.failed = len(bad)
    return run


# ----------------------------------------------------------------------
# End-to-end metrics (untraced passes)
# ----------------------------------------------------------------------
def pass_timings(tracer, results) -> Dict[str, float]:
    """Wall, set-up and event-loop rate of one pass, from its job spans.

    Set-up is host time outside event loops before each job's first event:
    the time from the pass start to the first job (spec build, job
    expansion, fingerprinting and, for the fleet, placement, admission and
    background planning), plus, per job, the time from ``SimJob.execute``
    entry to ``SSDSimulator.run`` entry (workload build and simulator
    construction, preconditioning included).
    """
    (rep_start, rep_end, _), = tracer.job_spans("rep")
    jobs = tracer.job_spans("job")
    runs = {job: (start, end) for start, end, job in tracer.job_spans("sim.run")}
    setup = jobs[0][0] - rep_start
    for start, _, job in jobs:
        setup += runs[job][0] - start
    loop_s = sum(end - start for start, end in runs.values())
    events = sum(result.events_processed for result in results)
    return {
        "wall_s": rep_end - rep_start,
        "setup_s": setup,
        "events_per_s": events / loop_s,
    }


def spk3_pool(results):
    """The jobs the simulated metrics pool over (every fleet job is SPK3)."""
    return [result for result in results if result.scheduler == "SPK3"]


def simulated_metrics(results) -> Dict[str, float]:
    """Latency percentiles and bandwidth of the SPK3 pool (simulated time)."""
    pool = spk3_pool(results)
    samples = [sample for result in pool for sample in result.latency.samples_ns]
    total_bytes = sum(result.total_bytes for result in pool)
    makespan_s = sum(result.makespan_ns for result in pool) / 1e9
    return {
        "sim_latency_p50_us": percentile(samples, 0.50) / 1e3,
        "sim_latency_p99_us": percentile(samples, 0.99) / 1e3,
        "sim_bandwidth_mb_s": total_bytes / MB / makespan_s,
    }


def fidelity_line(results) -> str:
    """SPK3 against VAS/PAS beside the paper's headline claims."""
    by_scheduler: Dict[str, list] = {}
    for result in results:
        by_scheduler.setdefault(result.scheduler, []).append(result)

    def bandwidth(name):
        pool = by_scheduler[name]
        return sum(r.total_bytes for r in pool) / sum(r.makespan_ns for r in pool)

    def mean_latency(name):
        samples = [s for r in by_scheduler[name] for s in r.latency.samples_ns]
        return sum(samples) / len(samples)

    return (
        "fidelity (informational; no hardware reference data in this repo): "
        f"SPK3/VAS bandwidth {bandwidth('SPK3') / bandwidth('VAS'):.2f}x, "
        f"SPK3/PAS {bandwidth('SPK3') / bandwidth('PAS'):.2f}x (paper 1.8-2.2x); "
        f"mean latency -{100 * (1 - mean_latency('SPK3') / mean_latency('VAS')):.1f}% vs VAS, "
        f"-{100 * (1 - mean_latency('SPK3') / mean_latency('PAS')):.1f}% vs PAS "
        "(paper >=56.6%)"
    )


def end_to_end(good: List[Pass]) -> Dict[str, float]:
    """Host metrics over the good passes, peak RSS and the simulated metrics.

    ``wall_s`` and ``events_per_s`` are the best pass of the run (fastest
    wall, highest loop rate): on a shared 2-vCPU host, slow periods last
    longer than a pass, and across four same-seed 30 s aged-overwrite runs
    the best pass's wall spread 11% (IQR over median) where the median
    pass's spread 22%.  ``setup_s`` is the median pass's set-up.
    """
    metrics = {
        "wall_s": min(run.timings["wall_s"] for run in good),
        "setup_s": statistics.median(run.timings["setup_s"] for run in good),
        "events_per_s": max(run.timings["events_per_s"] for run in good),
    }
    # ru_maxrss is KiB on Linux; this process ran only this workload.
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics.update(simulated_metrics(good[0].output.results))
    return metrics


# ----------------------------------------------------------------------
# Per-layer metrics (traced passes)
# ----------------------------------------------------------------------
def layer_metrics(tracer, output, result_bytes: int) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (see ``layers.json``).

    ``trace.overhead_ratio`` needs the untraced pass too and is added by
    the caller.
    """
    results = output.results
    counters = merge_counter_snapshots([result.counters for result in results])
    pool = spk3_pool(results)
    makespan = sum(result.makespan_ns for result in pool)
    transactions = sum(result.transactions for result in pool)
    host_writes = sum(result.lifetime.host_writes for result in results)
    flash_writes = sum(result.lifetime.flash_writes for result in results)
    fleet = output.fleet_counts
    return {
        "workloads.build_s": tracer.self_s("workloads.build"),
        "sim.construct_s": tracer.self_s("sim.construct"),
        "sim.loop_self_s": tracer.self_s("sim.run"),
        "sim.events": sum(result.events_processed for result in results),
        "sim.event_batches": sum(result.event_batches for result in results),
        "lifetime.apply_s": tracer.total_s("lifetime.apply"),
        "lifetime.steady_s": tracer.total_s("lifetime.steady"),
        "ftl.fill_s": tracer.total_s("ftl.fill"),
        "lifetime.precondition_writes": sum(
            result.lifetime.precondition_writes for result in results
        ),
        "lifetime.steady_passes": sum(
            result.lifetime.steady_state_passes for result in results
        ),
        "core.self_s": tracer.self_s("core"),
        "core.compose_calls": tracer.outcome_calls("core"),
        "core.compose_hit_ratio": tracer.hit_ratio("core"),
        "scheduler.hol_stalls": counters.get("scheduler.hol_stalls", 0),
        "scheduler.conflict_skips": counters.get("scheduler.conflict_skips", 0),
        "scheduler.rios_visits": counters.get("scheduler.rios_visits", 0),
        "nvmhc.self_s": tracer.self_s("nvmhc"),
        "nvmhc.backlogged": counters.get("arrivals.backlogged", 0),
        "flash.self_s": tracer.self_s("flash"),
        "flash.start_hit_ratio": tracer.hit_ratio("flash"),
        "flash.transactions": sum(result.transactions for result in results),
        "flash.gc_transactions": sum(result.gc_transactions for result in results),
        "flash.sim_chip_utilization": sum(
            result.chip_utilization * result.makespan_ns for result in pool
        )
        / makespan,
        "flash.sim_requests_per_txn": sum(result.memory_requests_served for result in pool)
        / transactions,
        "flash.sim_pal3_share": sum(
            result.flp.transactions.get(ParallelismClass.PAL3, 0) for result in pool
        )
        / transactions,
        "nvmhc.sim_queue_stall_frac": sum(result.queue_stall_time_ns for result in pool)
        / makespan,
        "ftl.translate_s": tracer.self_s("ftl.translate", loop_only=True),
        "ftl.gc_s": tracer.self_s("ftl.gc", loop_only=True),
        "ftl.callback_s": tracer.self_s("ftl.callback", loop_only=True),
        "ftl.gc_trigger_ratio": tracer.hit_ratio("ftl.gc", loop_only=True),
        "ftl.pages_migrated": counters.get("gc.pages_migrated", 0),
        "ftl.blocks_erased": counters.get("gc.blocks_erased", 0),
        "ftl.sim_write_amplification": flash_writes / host_writes if host_writes else 1.0,
        "metrics.record_s": tracer.self_s("metrics.record"),
        "metrics.assemble_s": tracer.self_s("metrics.assemble"),
        "engine.cache_store_s": tracer.self_s("engine.cache_store"),
        "engine.result_bytes": result_bytes,
        "array.merge_s": tracer.self_s("array.merge"),
        "fleet.plan_s": tracer.self_s("fleet.plan"),
        "fleet.jobs_s": tracer.self_s("fleet.jobs"),
        "fleet.merge_s": tracer.self_s("fleet.merge"),
        "fleet.reconcile_s": tracer.self_s("fleet.reconcile"),
        "fleet.rejected_ios": fleet.get("rejected_ios", 0),
        "fleet.throttled_ios": fleet.get("throttled_ios", 0),
        "fleet.background_ios": fleet.get("background_ios", 0),
    }


def layer_table(tracer) -> str:
    """Span counts and self time per layer, split loop / outside the loop."""
    layers = sorted({layer for layer, _ in tracer.aggregates})
    lines = [f"{'layer':<20}{'spans':>10}{'self_s loop':>14}{'self_s other':>14}"]
    for layer in layers:
        loop = tracer.aggregates.get((layer, True), [0, 0.0, 0.0])
        other = tracer.aggregates.get((layer, False), [0, 0.0, 0.0])
        lines.append(
            f"{layer:<20}{int(loop[0] + other[0]):>10}{loop[2]:>14.4f}{other[2]:>14.4f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def load_declared() -> dict:
    """``BENCHMARK.json``: the metric names and units this run must print.

    Every per-layer metric must also be mapped in ``layers.json``.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapped = json.loads(Path(__file__).with_name("layers.json").read_text())["layers"]
    unmapped = {entry["name"] for entry in declared["per_layer"]} ^ {
        entry["metric"] for entry in mapped
    }
    if unmapped:
        raise SystemExit(f"error: layers.json and BENCHMARK.json disagree on {sorted(unmapped)}")
    return declared


def run_passes(workload, seed, expected, seconds, *, layers, reference, minimum):
    """Measure passes until ``seconds`` have elapsed (and at least ``minimum``).

    Only the first good pass keeps its results; the others keep their numbers.
    """
    passes: List[Pass] = []
    started = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - started < seconds:
        run = measure(workload, seed, expected, reference, layers=layers)
        reference = reference or run.digest or None
        if run.failed or any(kept.output is not None for kept in passes):
            run.output = None
        passes.append(run)
    return passes


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    declared = load_declared()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    default_registry()  # the device zoo loads before any timing, like the imports
    workload = WORKLOADS[args.workload]
    expected = [
        (len(requests), sum(io.size_bytes for io in requests))
        for requests in (job.workload.build() for job in workload.jobs(args.seed))
    ]

    WORK_DIR.mkdir(exist_ok=True)
    started = time.perf_counter()
    try:
        # The traced run starts with one untraced pass: the digest the traced
        # passes must reproduce and the wall time their overhead is taken of.
        passes = run_passes(workload, args.seed, expected, 0 if args.trace else args.seconds,
                            layers=False, reference=None,
                            minimum=1 if args.trace else MIN_PASSES)
        if args.trace:
            passes += run_passes(workload, args.seed, expected,
                                 args.seconds - (time.perf_counter() - started),
                                 layers=True, reference=passes[0].digest or None, minimum=1)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    attempted = len(expected) * len(passes)
    failed = sum(run.failed for run in passes)
    for run in passes:
        for message in run.messages:
            print(f"check failed: {message}", file=sys.stderr)
    good = [run for run in passes if run.timings and not run.failed]
    if not good or (args.trace and passes[0] is not good[0]):
        print("error: no (untraced) pass passed its checks", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} jobs, {failed} failed, result digest {good[0].digest}")
    if args.trace:
        traced = [run for run in good if run.layers]
        values = {
            name: statistics.median(run.layers[name] for run in traced)
            for name in traced[0].layers
        }
        values["trace.overhead_ratio"] = (
            statistics.median(run.timings["wall_s"] for run in traced)
            / good[0].timings["wall_s"]
        )
        print(f"tracing overhead {values['trace.overhead_ratio']:.3f}x; spans of the first "
              "traced pass (spans = sample count):")
        print(traced[0].table)
        names = declared["per_layer"]
    else:
        values = end_to_end(good)
        pool = spk3_pool(good[0].output.results)
        samples = sum(result.latency.count for result in pool)
        print(f"simulated latency: {samples} samples over {len(pool)} SPK3 jobs, "
              f"{samples - math.ceil(0.99 * samples)} beyond p99")
        if args.workload == "paper-grid":
            print(fidelity_line(good[0].output.results))
        names = declared["end_to_end"]

    metrics = {}
    for entry in names:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']:<30} {values[entry['name']]:>16.6f} {entry['unit']}")
    missing = set(values) - set(metrics)
    if missing:
        print(f"error: metrics missing from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
