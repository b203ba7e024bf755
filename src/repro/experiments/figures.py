"""The paper's evaluation as one table: Table 1 and Figures 1, 6 and 10-17.

:data:`ARTIFACTS` maps each artifact key (``table01``, ``figure01`` ...,
plus the beyond-the-paper ``array_scaling``, ``scenario_matrix`` and
``steady_state`` grids) to an :class:`Artifact`: the title of its printed
table, its run function and the summary lines printed under the table.
``python -m repro.experiments <artifact>`` prints one of them; library
callers run one directly::

    rows = ARTIFACTS["figure10"].run(scale=ExperimentScale.quick(), engine=engine)

Two spec builders serve most of the figures:

* :func:`trace_grid` - Table 1 traces x schedulers on the paper's
  platform: Figures 6, 10, 11, 13 and 14, and Figure 12 over one trace;
* :func:`transfer_sweep` - random-offset transfer-size sweeps with GC off
  over chip counts x schedulers: Figures 1, 15 and 16.

Figure 17 (pristine vs fragmented SSDs) and Table 1 (trace synthesis only)
keep their own builders.  Every run function takes an optional
:class:`~repro.experiments.engine.ExecutionEngine` and returns plain row
dictionaries (Figure 12: one dictionary of latency series).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.experiments import array_scaling, scenario_matrix, steady_state
from repro.experiments.engine import ExecutionEngine
from repro.experiments.runner import (
    ALL_SCHEDULERS,
    ExperimentScale,
    default_workload_specs,
    paper_config,
    ratios,
)
from repro.experiments.spec import ExperimentSpec, SimJob, WorkloadSpec
from repro.metrics.report import SimulationResult, format_table
from repro.scenarios.library import default_scenarios
from repro.sim.config import SimulationConfig
from repro.workloads.datacenter import (
    DATACENTER_TRACE_NAMES,
    datacenter_profile,
    trace_table_row,
)
from repro.workloads.request import IORequest

KB = 1024
MB = 1024 * KB

Rows = List[Dict[str, object]]


def _pct(fraction: float) -> float:
    return round(100.0 * fraction, 1)


def _rows(
    spec: ExperimentSpec,
    engine: Optional[ExecutionEngine],
    names: Sequence[str],
    columns: Callable[[SimulationResult], Dict[str, object]],
) -> Rows:
    """One row per job of ``spec``: its key under ``names``, then ``columns``."""
    results = (engine or ExecutionEngine()).run(spec)
    return [{**dict(zip(names, key)), **columns(result)} for key, result in results.items()]


# -- Table 1: workload characteristics ----------------------------------------


def _measured_statistics(trace: Sequence[IORequest]) -> Dict[str, float]:
    """Summary statistics of a generated trace (mirrors Table 1's columns)."""
    reads = [io for io in trace if not io.is_write]
    writes = [io for io in trace if io.is_write]
    read_bytes = sum(io.size_bytes for io in reads)
    write_bytes = sum(io.size_bytes for io in writes)
    return {
        "measured_read_mb": round(read_bytes / MB, 2),
        "measured_write_mb": round(write_bytes / MB, 2),
        "measured_read_count": len(reads),
        "measured_write_count": len(writes),
        "measured_read_fraction": round(len(reads) / max(1, len(trace)), 3),
        "measured_avg_read_kb": round(read_bytes / 1024 / max(1, len(reads)), 1),
        "measured_avg_write_kb": round(write_bytes / 1024 / max(1, len(writes)), 1),
    }


def _table01(
    scale: Optional[ExperimentScale] = None,
    traces: Optional[Sequence[str]] = None,
    *,
    engine: Optional[ExecutionEngine] = None,
) -> Rows:
    """Table 1: the published trace profile beside the synthesised trace.

    The paper classifies the sixteen traces by transfer size, I/O count,
    read/write randomness and a transactional-locality class.  The profile
    columns restate the published statistics the generator targets; the
    measured columns recompute them from a generated trace.  Synthesis runs
    through the engine's workload builder, so it parallelises under the
    process backend.
    """
    scale = scale or ExperimentScale.quick()
    specs = [
        WorkloadSpec.datacenter(name, num_requests=scale.requests_per_trace, seed=scale.seed)
        for name in (tuple(traces) if traces is not None else DATACENTER_TRACE_NAMES)
    ]
    generated = (engine or ExecutionEngine()).build_workloads(specs)
    rows: Rows = []
    for spec in specs:
        row = dict(trace_table_row(spec.name))
        row.update(_measured_statistics(generated[spec.name]))
        row["target_read_fraction"] = round(datacenter_profile(spec.name).read_fraction, 3)
        rows.append(row)
    return rows


# -- The trace grid: Figures 6 and 10-14 --------------------------------------


def trace_grid(scale: ExperimentScale, schedulers: Sequence[str]) -> ExperimentSpec:
    """Every trace of ``scale`` under every scheduler, keyed ``(trace, scheduler)``."""
    return ExperimentSpec.matrix(
        "trace-grid", default_workload_specs(scale).values(), schedulers, paper_config(scale)
    )


def _grid(scale, schedulers, engine) -> Dict[tuple, SimulationResult]:
    return (engine or ExecutionEngine()).run(
        trace_grid(scale or ExperimentScale.quick(), schedulers)
    )


def _grid_rows(scale, schedulers, engine, columns) -> Rows:
    spec = trace_grid(scale or ExperimentScale.quick(), schedulers)
    return _rows(spec, engine, ("trace", "scheduler"), columns)


def _figure06(
    scale: Optional[ExperimentScale] = None, *, engine: Optional[ExecutionEngine] = None
) -> Rows:
    """Figure 6: chip utilisation, typical (VAS), improved (PAS), potential (SPK3).

    The paper reports about 17% (VAS), 24% (PAS) and 55% on average for the
    idealised case that Sprinkler SPK3 approaches.
    """
    results = _grid(scale, ("VAS", "PAS", "SPK3"), engine)
    rows: Rows = []
    for trace in dict.fromkeys(trace for trace, _ in results):
        vas, pas, spk3 = (
            _pct(results[(trace, scheduler)].chip_utilization)
            for scheduler in ("VAS", "PAS", "SPK3")
        )
        rows.append(
            {
                "trace": trace,
                "utilization_vas_pct": vas,
                "utilization_pas_pct": pas,
                "utilization_potential_pct": spk3,
                "improvement_over_vas_x": round(spk3 / max(0.1, vas), 2),
                "improvement_over_pas_x": round(spk3 / max(0.1, pas), 2),
            }
        )
    return rows


def _figure10(
    scale: Optional[ExperimentScale] = None,
    schedulers: Sequence[str] = ALL_SCHEDULERS,
    *,
    engine: Optional[ExecutionEngine] = None,
) -> Rows:
    """Figure 10: bandwidth, IOPS, mean latency and queue stall normalised to VAS.

    The paper: SPK3 reaches at least 2.2x the bandwidth of VAS and 1.8x
    that of PAS, cuts latency by 56.6%-92.3% and queue stall time by ~86%.
    """
    if "VAS" not in schedulers:
        raise ValueError(
            "Figure 10 normalises queue stall time to the VAS baseline; "
            f"schedulers {tuple(schedulers)} lack 'VAS'"
        )
    results = _grid(scale, schedulers, engine)
    return [
        {
            "trace": trace,
            "scheduler": scheduler,
            "bandwidth_kb_s": round(result.bandwidth_kb_s, 1),
            "iops": round(result.iops, 1),
            "avg_latency_ns": round(result.avg_latency_ns, 1),
            "queue_stall_norm": round(
                result.queue_stall_time_ns / max(1, results[(trace, "VAS")].queue_stall_time_ns),
                3,
            ),
        }
        for (trace, scheduler), result in results.items()
    ]


def _figure11(
    scale: Optional[ExperimentScale] = None,
    schedulers: Sequence[str] = ALL_SCHEDULERS,
    *,
    engine: Optional[ExecutionEngine] = None,
) -> Rows:
    """Figure 11: inter-chip (11a) and intra-chip (11b) idleness.

    Inter-chip idleness is whole chips left idle (parallelism dependency);
    intra-chip idleness is die/plane time wasted by transactions carrying
    too few requests.  The paper: SPK3 cuts inter-chip idleness by ~46.1%
    vs VAS, SPK1 cuts intra-chip idleness the most.
    """
    return _grid_rows(
        scale,
        schedulers,
        engine,
        lambda result: {
            "inter_chip_idleness_pct": _pct(result.inter_chip_idleness),
            "intra_chip_idleness_pct": _pct(result.intra_chip_idleness),
        },
    )


def _figure12(
    scale: Optional[ExperimentScale] = None,
    schedulers: Sequence[str] = ("VAS", "PAS", "SPK3"),
    *,
    engine: Optional[ExecutionEngine] = None,
) -> Dict[str, object]:
    """Figure 12: per-request latency series of the one trace in ``scale``.

    The paper replays the first 3,000 I/Os of msnfs1: SPK3's latencies are
    ~80% below VAS and ~64% below PAS.  Returns each scheduler's latency
    series in arrival order, the mean latencies and SPK3's reductions.
    """
    scale = scale or ExperimentScale(requests_per_trace=400, traces=("msnfs1",))
    (trace,) = scale.traces
    results = _grid(scale, schedulers, engine)
    series: Dict[str, List[int]] = {}
    means: Dict[str, float] = {}
    for scheduler in schedulers:
        result = results[(trace, scheduler)]
        ordered = sorted(result.time_series, key=lambda point: point.arrival_ns)
        series[scheduler] = [point.latency_ns for point in ordered]
        means[scheduler] = result.avg_latency_ns
    reductions: Dict[str, float] = {}
    if "SPK3" in means:
        for baseline in schedulers:
            if baseline == "SPK3" or means[baseline] <= 0:
                continue
            reductions[f"SPK3_vs_{baseline}"] = round(1.0 - means["SPK3"] / means[baseline], 3)
    return {
        "trace": trace,
        "series": series,
        "mean_latency_ns": means,
        "latency_reduction": reductions,
    }


def latency_summary(data: Mapping[str, Any]) -> Rows:
    """Figure 12 as printable rows: I/O count, mean and p99 latency per scheduler."""
    rows: Rows = []
    for scheduler, mean in data["mean_latency_ns"].items():
        samples = data["series"][scheduler]
        rows.append(
            {
                "scheduler": scheduler,
                "ios": len(samples),
                "mean_latency_us": round(mean / 1000.0, 1),
                "p99_latency_us": round(
                    sorted(samples)[int(0.99 * (len(samples) - 1))] / 1000.0 if samples else 0.0, 1
                ),
            }
        )
    return rows


def _figure13(
    scale: Optional[ExperimentScale] = None,
    schedulers: Sequence[str] = ("VAS", "PAS", "SPK3"),
    *,
    engine: Optional[ExecutionEngine] = None,
) -> Rows:
    """Figure 13: execution time split into bus, contention, cell and idle time.

    The paper: SPK3 turns idle time into cell activity, eliminating system
    idleness by 40.5% vs PAS and 50.7% vs VAS.
    """

    def columns(result: SimulationResult) -> Dict[str, object]:
        fractions = result.breakdown_fractions()
        return {
            "bus_operation_pct": _pct(fractions["bus_operation"]),
            "bus_contention_pct": _pct(fractions["bus_contention"]),
            "memory_operation_pct": _pct(fractions["memory_operation"]),
            "system_idle_pct": _pct(fractions["system_idle"]),
        }

    return _grid_rows(scale, schedulers, engine, columns)


def _figure14(
    scale: Optional[ExperimentScale] = None,
    schedulers: Sequence[str] = ("PAS", "SPK1", "SPK2", "SPK3"),
    *,
    engine: Optional[ExecutionEngine] = None,
) -> Rows:
    """Figure 14: transactions per flash-level-parallelism class.

    NON-PAL (none), PAL1 (plane sharing), PAL2 (die interleaving), PAL3
    (both).  The paper: PAS serves almost everything as NON-PAL/PAL1, SPK1
    maximises PAL3, SPK2 sits between, SPK3 balances SLP and FLP.
    """

    def columns(result: SimulationResult) -> Dict[str, object]:
        fractions = result.flp_fractions()
        return {
            "non_pal_pct": _pct(fractions["NON-PAL"]),
            "pal1_pct": _pct(fractions["PAL1"]),
            "pal2_pct": _pct(fractions["PAL2"]),
            "pal3_pct": _pct(fractions["PAL3"]),
            "high_flp_pct": _pct(result.flp.high_flp_fraction),
        }

    return _grid_rows(scale, schedulers, engine, columns)


# -- The transfer-size sweep: Figures 1, 15 and 16 ----------------------------


def transfer_sweep(
    chip_counts: Sequence[int],
    transfer_sizes_kb: Sequence[int],
    schedulers: Sequence[str],
    *,
    requests_per_point: int,
    read_fraction: float,
    seed: int,
    label: str = "sweep",
) -> ExperimentSpec:
    """Random-offset transfers of each size, keyed ``(num_chips, size_kb, scheduler)``.

    Paper-platform SSDs with GC off; each size's address space holds at
    least eight transfers (and 64 KB) per request, and requests arrive
    every microsecond.  ``label`` prefixes the workload names.
    """
    jobs: List[SimJob] = []
    for num_chips in chip_counts:
        config = SimulationConfig.paper_scale(num_chips).with_overrides(gc_enabled=False)
        for size_kb in transfer_sizes_kb:
            workload = WorkloadSpec.random(
                f"{label}-{size_kb}KB",
                num_requests=requests_per_point,
                size_bytes=size_kb * KB,
                address_space_bytes=max(64, 8 * size_kb) * KB * requests_per_point,
                read_fraction=read_fraction,
                interarrival_ns=1_000,
                seed=seed,
            )
            for scheduler in schedulers:
                jobs.append(
                    SimJob(
                        workload=workload,
                        scheduler=scheduler,
                        config=config,
                        key=(num_chips, size_kb, scheduler),
                    )
                )
    return ExperimentSpec("transfer-sweep", tuple(jobs))


def _chips_for_dies(num_dies: int) -> int:
    """Chips of an SSD with ``num_dies`` dies (2 per chip), rounded up to a multiple of 8."""
    return (max(8, num_dies // 2) + 7) // 8 * 8


def _figure01(
    die_counts: Sequence[int] = (16, 32, 64, 128, 256, 512),
    transfer_sizes_kb: Sequence[int] = (4, 16, 64, 128),
    *,
    requests_per_point: int = 48,
    scheduler: str = "VAS",
    seed: int = 11,
    engine: Optional[ExecutionEngine] = None,
) -> Rows:
    """Figure 1: a conventional controller as the die count grows.

    The paper's motivating figure: with a VAS-like controller, bandwidth
    stagnates (1a) while chip utilisation collapses and idleness grows (1b)
    as dies are added.  Die counts here are scaled down; the trend - a
    bounded queue cannot activate more chips - is what the figure shows.
    """
    spec = transfer_sweep(
        [_chips_for_dies(num_dies) for num_dies in die_counts],
        transfer_sizes_kb,
        (scheduler,),
        requests_per_point=requests_per_point,
        read_fraction=1.0,
        seed=seed,
        label="seq",
    )
    results = (engine or ExecutionEngine()).run(spec)
    rows: Rows = []
    for size_kb in transfer_sizes_kb:
        for job in spec.jobs:
            if job.key[1] != size_kb:
                continue
            result = results[job.key]
            rows.append(
                {
                    "transfer_kb": size_kb,
                    "num_dies": job.config.geometry.num_dies,
                    "num_chips": job.config.geometry.num_chips,
                    "bandwidth_mb_s": round(result.bandwidth_kb_s / 1024.0, 1),
                    "chip_utilization_pct": _pct(result.chip_utilization),
                    "idleness_pct": _pct(result.inter_chip_idleness),
                }
            )
    return rows


def stagnation_summary(rows: Sequence[Mapping[str, object]]) -> Dict[int, float]:
    """Figure 1: bandwidth gain from the smallest to the largest SSD, per size.

    Values close to 1.0 mean the extra dies bought nothing (stagnation).
    """
    summary: Dict[int, float] = {}
    for size_kb in sorted({int(row["transfer_kb"]) for row in rows}):
        series = sorted(
            (row for row in rows if row["transfer_kb"] == size_kb),
            key=lambda row: row["num_dies"],
        )
        first = float(series[0]["bandwidth_mb_s"]) or 1.0
        summary[size_kb] = round(float(series[-1]["bandwidth_mb_s"]) / first, 2)
    return summary


_SWEEP_KEYS = ("num_chips", "transfer_kb", "scheduler")


def _figure15(
    chip_counts: Sequence[int] = (64, 256),
    transfer_sizes_kb: Sequence[int] = (4, 16, 64, 256, 1024),
    schedulers: Sequence[str] = ("VAS", "SPK1", "SPK2", "SPK3"),
    *,
    requests_per_point: int = 32,
    seed: int = 23,
    engine: Optional[ExecutionEngine] = None,
) -> Rows:
    """Figure 15: chip utilisation vs transfer size and SSD size (reads).

    The paper (4 KB-4 MB on 64/256/1024 chips): VAS grows with transfer
    size, SPK1 helps only large requests, SPK2 only small ones, and SPK3
    stays high everywhere (71.2%/61.5%/44.9% vs VAS's 37%/21.2%/13.9%).
    """
    spec = transfer_sweep(
        chip_counts,
        transfer_sizes_kb,
        schedulers,
        requests_per_point=requests_per_point,
        read_fraction=1.0,
        seed=seed,
    )
    return _rows(
        spec,
        engine,
        _SWEEP_KEYS,
        lambda result: {
            "chip_utilization_pct": _pct(result.chip_utilization),
            "bandwidth_mb_s": round(result.bandwidth_kb_s / 1024.0, 1),
        },
    )


def _figure16(
    chip_counts: Sequence[int] = (64,),
    transfer_sizes_kb: Sequence[int] = (4, 16, 64, 256, 1024),
    schedulers: Sequence[str] = ("VAS", "SPK1", "SPK2", "SPK3"),
    *,
    requests_per_point: int = 32,
    seed: int = 31,
    engine: Optional[ExecutionEngine] = None,
) -> Rows:
    """Figure 16: flash transactions needed for a mixed read/write sweep.

    The paper: FARO's over-commitment merges memory requests into ~50.2%
    fewer transactions for SPK3 than VAS; SPK2 reduces far less.
    """
    spec = transfer_sweep(
        chip_counts,
        transfer_sizes_kb,
        schedulers,
        requests_per_point=requests_per_point,
        read_fraction=0.7,
        seed=seed,
    )
    return _rows(
        spec,
        engine,
        _SWEEP_KEYS,
        lambda result: {
            "transactions": result.transactions,
            "memory_requests": result.memory_requests_served,
            "reduction_vs_requests_pct": _pct(result.transaction_reduction),
            "coalescing_degree": round(result.coalescing_degree, 2),
        },
    )


# -- Figure 17: garbage collection and the readdressing callback --------------


def _figure17_spec(
    chip_counts: Sequence[int],
    transfer_sizes_kb: Sequence[int],
    schedulers: Sequence[str],
    *,
    requests_per_point: int,
    prefill_fraction: float,
    prefill_overwrite_fraction: float,
    seed: int,
) -> ExperimentSpec:
    """The GC grid, keyed ``(chips, size_kb, scheduler, pristine/fragmented)``.

    Pristine cells disable GC; fragmented cells prefill the drive so the
    free-block watermark is hit almost immediately.  VAS and PAS run with
    the readdressing callback disabled (stale in-flight requests pay a
    re-translation penalty); SPK3 keeps it.  The geometry uses fewer,
    smaller blocks than the paper's 8192x128 so preconditioning stays in
    the seconds range; GC frequency and cost per host write depend on the
    occupancy fraction and valid-page mix, not on absolute block counts.
    """
    jobs: List[SimJob] = []
    for num_chips in chip_counts:
        base = SimulationConfig.paper_scale(num_chips)
        gc_geometry = base.geometry.scaled(blocks_per_plane=16, pages_per_block=32)
        # Keep the logical space small relative to capacity so prefilling it
        # leaves every plane close to the GC watermark.
        address_space = min(gc_geometry.capacity_bytes // 2, 64 * KB * requests_per_point * 8)
        for size_kb in transfer_sizes_kb:
            workload = WorkloadSpec.mixed(
                f"gc-{size_kb}KB",
                num_requests=requests_per_point,
                size_bytes=size_kb * KB,
                address_space_bytes=max(address_space, 8 * size_kb * KB),
                read_fraction=0.3,
                randomness=1.0,
                interarrival_ns=1_500,
                seed=seed,
            )
            for scheduler in schedulers:
                for fragmented in (False, True):
                    config = base.with_overrides(
                        geometry=gc_geometry,
                        gc_enabled=fragmented,
                        prefill_fraction=prefill_fraction if fragmented else 0.0,
                        prefill_overwrite_fraction=prefill_overwrite_fraction,
                        readdressing_callback=None if scheduler.startswith("SPK") else False,
                    )
                    state = "fragmented" if fragmented else "pristine"
                    jobs.append(
                        SimJob(
                            workload=workload,
                            scheduler=scheduler,
                            config=config,
                            key=(num_chips, size_kb, scheduler, state),
                        )
                    )
    return ExperimentSpec("figure17", tuple(jobs))


def _figure17(
    chip_counts: Sequence[int] = (64,),
    transfer_sizes_kb: Sequence[int] = (16, 64, 256),
    schedulers: Sequence[str] = ("VAS", "PAS", "SPK3"),
    *,
    requests_per_point: int = 48,
    prefill_fraction: float = 0.9,
    prefill_overwrite_fraction: float = 0.45,
    seed: int = 41,
    engine: Optional[ExecutionEngine] = None,
) -> Rows:
    """Figure 17: bandwidth on pristine vs fragmented (GC-active) SSDs.

    The paper: every scheduler loses bandwidth once GC starts (SPK3 33-78%,
    as its relaxed parallelism has more to lose), but SPK3 with the
    readdressing callback still delivers ~2x VAS/PAS, because it re-spreads
    and re-coalesces the surviving memory requests after each migration.
    """
    spec = _figure17_spec(
        chip_counts,
        transfer_sizes_kb,
        schedulers,
        requests_per_point=requests_per_point,
        prefill_fraction=prefill_fraction,
        prefill_overwrite_fraction=prefill_overwrite_fraction,
        seed=seed,
    )
    return _rows(
        spec,
        engine,
        ("num_chips", "transfer_kb", "scheduler", "state"),
        lambda result: {
            "bandwidth_kb_s": round(result.bandwidth_kb_s, 1),
            "gc_invocations": int(result.extra.get("gc_invocations", 0)),
            "gc_time_ms": round(result.gc_time_ns / 1e6, 2),
            "requests_retargeted": int(result.extra.get("requests_retargeted", 0)),
            "requests_penalized": int(result.extra.get("requests_penalized", 0)),
        },
    )


# -- Summaries ------------------------------------------------------------------


def utilization_averages(rows: Sequence[Mapping[str, object]]) -> Dict[str, float]:
    """Figure 6: average utilisation per scenario across all traces."""
    keys = ("utilization_vas_pct", "utilization_pas_pct", "utilization_potential_pct")
    return {
        key: round(sum(float(row[key]) for row in rows) / max(1, len(rows)), 1) for key in keys
    }


def column_means(rows: Sequence[Mapping[str, object]], metric: str, *group: str) -> Dict:
    """Mean of ``metric`` per value of the ``group`` columns (a tuple for two or more)."""
    key = itemgetter(*group)
    buckets: Dict[Any, List[float]] = {}
    for row in rows:
        buckets.setdefault(key(row), []).append(float(row[metric]))
    return {value: round(sum(values) / len(values), 1) for value, values in buckets.items()}


def _per_trace(
    rows: Sequence[Mapping[str, object]], metric: str, baseline: str, target: str
) -> Dict[str, float]:
    """``target``'s ``metric`` over ``baseline``'s, per trace in sorted order."""
    pairs = ratios(rows, metric, "scheduler", baseline, ("trace",))
    return {
        trace: ratio for (trace, scheduler), ratio in sorted(pairs.items()) if scheduler == target
    }


def speedups_over(
    rows: Sequence[Mapping[str, object]], baseline: str, target: str
) -> Dict[str, float]:
    """Per-trace bandwidth ratio target/baseline (e.g. SPK3 over VAS)."""
    return {
        trace: round(ratio, 2)
        for trace, ratio in _per_trace(rows, "bandwidth_kb_s", baseline, target).items()
    }


def latency_reduction(
    rows: Sequence[Mapping[str, object]], baseline: str, target: str
) -> Dict[str, float]:
    """Per-trace mean-latency reduction of ``target`` relative to ``baseline``."""
    return {
        trace: round(1.0 - ratio, 3)
        for trace, ratio in _per_trace(rows, "avg_latency_ns", baseline, target).items()
    }


def mean_reduction(
    rows: Sequence[Mapping[str, object]], metric: str, baseline: str, target: str
) -> float:
    """Mean over traces of the relative reduction of ``metric`` from baseline to target."""
    reductions = [1.0 - r for r in _per_trace(rows, metric, baseline, target).values()]
    return round(sum(reductions) / len(reductions), 3) if reductions else 0.0


def reduction_vs_vas(rows: Sequence[Mapping[str, object]]) -> Dict[tuple, float]:
    """Figure 16: transaction reduction of each scheduler vs VAS, per sweep point."""
    pairs = ratios(rows, "transactions", "scheduler", "VAS", ("num_chips", "transfer_kb"))
    return {key: round(1.0 - ratio, 3) for key, ratio in pairs.items()}


def gc_degradation(rows: Sequence[Mapping[str, object]]) -> Dict[tuple, float]:
    """Figure 17: relative bandwidth loss (pristine -> fragmented) per sweep point."""
    point = ("num_chips", "transfer_kb", "scheduler")
    pairs = ratios(rows, "bandwidth_kb_s", "state", "pristine", point)
    return {
        key[:3]: round(1.0 - ratio, 3) for key, ratio in pairs.items() if key[3] == "fragmented"
    }


def fragmented_advantage(rows: Sequence[Mapping[str, object]]) -> Dict[tuple, float]:
    """Figure 17: SPK3-over-VAS bandwidth ratio in the fragmented (GC) state."""
    point = ("num_chips", "transfer_kb", "state")
    pairs = ratios(rows, "bandwidth_kb_s", "scheduler", "VAS", point)
    return {
        (chips, size_kb): round(ratio, 2)
        for (chips, size_kb, state, scheduler), ratio in pairs.items()
        if state == "fragmented" and scheduler == "SPK3"
    }


# -- The table ------------------------------------------------------------------


@dataclass(frozen=True)
class Artifact:
    """One printable artifact: table title, run function, summary lines.

    ``run`` accepts ``engine=`` and defaults to the CLI scale; ``table``
    turns its result into the printed rows and ``summary`` into the lines
    printed under the table.
    """

    title: str
    run: Callable[..., Any]
    summary: Callable[[Any], Sequence[str]]
    table: Callable[[Any], Rows] = list

    def report(self, rows: Any) -> str:
        """The table, then (after a blank line) the summary lines."""
        text = format_table(self.table(rows), title=self.title)
        lines = self.summary(rows)
        return f"{text}\n\n" + "\n".join(lines) if lines else text


ARTIFACTS: Dict[str, Artifact] = {
    "table01": Artifact(
        "Table 1: workload characteristics (profile vs synthesised)", _table01, lambda rows: ()
    ),
    "figure01": Artifact(
        "Figure 1: scaling of a conventional (VAS) controller",
        _figure01,
        lambda rows: [
            "Bandwidth gain largest/smallest SSD per transfer size: "
            f"{stagnation_summary(rows)}"
        ],
    ),
    "figure06": Artifact(
        "Figure 6: chip utilisation and improvement potential",
        _figure06,
        lambda rows: [f"Averages: {utilization_averages(rows)}"],
    ),
    "figure10": Artifact(
        "Figure 10: bandwidth / IOPS / latency / queue stall",
        _figure10,
        lambda rows: [
            f"SPK3 bandwidth over VAS: {speedups_over(rows, 'VAS', 'SPK3')}",
            f"SPK3 bandwidth over PAS: {speedups_over(rows, 'PAS', 'SPK3')}",
            f"SPK3 latency reduction vs VAS: {latency_reduction(rows, 'VAS', 'SPK3')}",
        ],
    ),
    "figure11": Artifact(
        "Figure 11: inter-chip and intra-chip idleness",
        _figure11,
        lambda rows: [
            "SPK3 inter-chip idleness reduction vs VAS: "
            f"{mean_reduction(rows, 'inter_chip_idleness_pct', 'VAS', 'SPK3')}",
            "SPK1 intra-chip idleness reduction vs VAS: "
            f"{mean_reduction(rows, 'intra_chip_idleness_pct', 'VAS', 'SPK1')}",
        ],
    ),
    "figure12": Artifact(
        "Figure 12: msnfs1 time-series latency",
        _figure12,
        lambda data: [f"Latency reductions: {data['latency_reduction']}"],
        table=latency_summary,
    ),
    "figure13": Artifact(
        "Figure 13: execution time breakdown (percent)",
        _figure13,
        lambda rows: [
            "SPK3 idle-time reduction vs PAS: "
            f"{mean_reduction(rows, 'system_idle_pct', 'PAS', 'SPK3')}",
            "SPK3 idle-time reduction vs VAS: "
            f"{mean_reduction(rows, 'system_idle_pct', 'VAS', 'SPK3')}",
        ],
    ),
    "figure14": Artifact(
        "Figure 14: FLP breakdown (percent of transactions)",
        _figure14,
        lambda rows: [f"Average high-FLP share: {column_means(rows, 'high_flp_pct', 'scheduler')}"],
    ),
    "figure15": Artifact(
        "Figure 15: chip utilisation vs transfer size",
        _figure15,
        lambda rows: [
            "Average utilisation per (chips, scheduler): "
            f"{column_means(rows, 'chip_utilization_pct', 'num_chips', 'scheduler')}"
        ],
    ),
    "figure16": Artifact(
        "Figure 16: flash transaction counts",
        _figure16,
        lambda rows: [f"Transaction reduction vs VAS: {reduction_vs_vas(rows)}"],
    ),
    "figure17": Artifact(
        "Figure 17: garbage collection impact",
        _figure17,
        lambda rows: [
            f"Bandwidth degradation due to GC: {gc_degradation(rows)}",
            f"SPK3 over VAS under GC: {fragmented_advantage(rows)}",
        ],
    ),
    "array_scaling": Artifact(
        "Array scaling: device count x placement x scheduler",
        array_scaling.run_array_scaling,
        lambda rows: [
            "Bandwidth scaling (largest vs smallest array): "
            f"{array_scaling.scaling_efficiency(rows)}"
        ],
    ),
    # The scenario characterisation comes first; the matrix is printed below it.
    "scenario_matrix": Artifact(
        "Scenario characterization",
        scenario_matrix.run_scenario_matrix,
        lambda rows: [
            format_table(rows, title="Scenario matrix: scenario x scheduler x devices"),
            "",
            "Bandwidth ranking per cell:",
            *(
                f"  {scenario:8s} x{devices}: {' > '.join(ranking)}"
                for (scenario, devices), ranking in sorted(
                    scenario_matrix.scheduler_ranking(rows).items()
                )
            ),
        ],
        table=lambda rows: scenario_matrix.characterization_rows(default_scenarios()),
    ),
    "steady_state": Artifact(
        "Steady state: over-provisioning x fill x scheduler",
        steady_state.run_steady_state,
        lambda rows: [
            "WA vs over-provisioning (steady): "
            f"{steady_state.wa_by_overprovisioning([r for r in rows if r['state'] == 'steady'])}",
            f"Bandwidth cost of aging: {steady_state.aging_cost(rows)}",
        ],
    ),
}
