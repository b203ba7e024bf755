"""The paper's claims, checked against this reproduction.

``CLAIMS`` is the ledger: one row per claim, naming the artifact it comes
from (a figure, Table 1, or one of the beyond-the-paper grids), the claim in
words, the paper's own value or range (``None`` for a pure ordering claim)
and a predicate over the rows that artifact's run function returns
(``repro.experiments.figures.ARTIFACTS`` for the paper's artifacts).  One
parametrised test walks the table; another checks that no claim over rows
holds over an empty row list.

The predicates check *direction*, never the paper's absolute numbers: the
model has no hardware reference data, and the reduced scales here (64
chips, ~100 requests per trace) keep the whole ledger to seconds.  The
paper's values are recorded beside each row so a reader can see how far
the reproduction lands from them (README "Fidelity").

Every artifact runs once, through one module-scoped engine with an on-disk
cache, so the trace-driven figures (6, 10, 11, 13, 14), which share most
of their jobs, execute each distinct job once.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass
from typing import Any, Callable, Optional

import pytest

from repro.experiments import array_scaling, figures, scenario_matrix
from repro.experiments.engine import ExecutionEngine
from repro.experiments.runner import ExperimentScale
from repro.experiments.spec import SimJob, WorkloadSpec
from repro.scenarios.library import default_scenarios
from repro.sim.config import SimulationConfig

#: Scale of the trace-driven figures: the paper's 64-chip platform, four
#: Table 1 traces with different read/write mixes.
TRACE_SCALE = ExperimentScale(
    requests_per_trace=96,
    requests_per_point=16,
    num_chips=64,
    traces=("cfs0", "cfs3", "msnfs1", "proj0"),
    seed=7,
)

#: Transfer-size sweep shared by Figures 15 and 16.
SWEEP_SIZES_KB = (4, 16, 64, 256)
SWEEP_SCHEDULERS = ("VAS", "SPK1", "SPK2", "SPK3")


def _ablations(engine: ExecutionEngine) -> dict:
    """SPK3 on cfs3 with one design choice toggled per job, keyed by the toggle."""
    workload = WorkloadSpec.datacenter("cfs3", num_requests=96, seed=13)
    config = SimulationConfig.paper_scale(64)
    variants = {
        # Full over-commitment and channel-striped traversal, as published.
        "paper": (config, ()),
        "overcommit_limit=1": (config, (("overcommit_limit", 1),)),
        "channel_first": (config, (("channel_first_traversal", True),)),
        "queue_depth=4": (config.with_overrides(queue_depth=4), ()),
        "queue_depth=64": (config.with_overrides(queue_depth=64), ()),
    }
    jobs = [
        SimJob(workload=workload, scheduler="SPK3", config=cfg, scheduler_options=options)
        for cfg, options in variants.values()
    ]
    return dict(zip(variants, engine.run_jobs(jobs)))


#: The registry's run functions, keyed like ``python -m repro.experiments``.
RUN = {key: artifact.run for key, artifact in figures.ARTIFACTS.items()}

#: How to produce each artifact's rows, given the shared engine.
ARTIFACTS: dict[str, Callable[[ExecutionEngine], Any]] = {
    "Table 1": lambda engine: RUN["table01"](
        scale=ExperimentScale(requests_per_trace=120), engine=engine
    ),
    "Fig. 1": lambda engine: RUN["figure01"](
        die_counts=(16, 64, 256), transfer_sizes_kb=(4, 64), requests_per_point=16, engine=engine
    ),
    "Fig. 6": lambda engine: RUN["figure06"](scale=TRACE_SCALE, engine=engine),
    "Fig. 10": lambda engine: RUN["figure10"](scale=TRACE_SCALE, engine=engine),
    "Fig. 11": lambda engine: RUN["figure11"](scale=TRACE_SCALE, engine=engine),
    "Fig. 12": lambda engine: RUN["figure12"](
        scale=ExperimentScale(requests_per_trace=150, num_chips=64, traces=("msnfs1",)),
        engine=engine,
    ),
    "Fig. 13": lambda engine: RUN["figure13"](scale=TRACE_SCALE, engine=engine),
    "Fig. 14": lambda engine: RUN["figure14"](scale=TRACE_SCALE, engine=engine),
    "Fig. 15": lambda engine: RUN["figure15"](
        chip_counts=(64, 256),
        transfer_sizes_kb=SWEEP_SIZES_KB,
        schedulers=SWEEP_SCHEDULERS,
        requests_per_point=16,
        engine=engine,
    ),
    "Fig. 16": lambda engine: RUN["figure16"](
        chip_counts=(64,),
        transfer_sizes_kb=SWEEP_SIZES_KB,
        schedulers=SWEEP_SCHEDULERS,
        requests_per_point=16,
        engine=engine,
    ),
    "Fig. 17": lambda engine: RUN["figure17"](
        chip_counts=(64,),
        transfer_sizes_kb=(64, 256),
        schedulers=("VAS", "PAS", "SPK3"),
        requests_per_point=32,
        engine=engine,
    ),
    "array": lambda engine: array_scaling.run_array_scaling(
        device_counts=(1, 2, 4),
        policies=("stripe", "range"),
        schedulers=("VAS", "SPK3"),
        num_requests=16,
        engine=engine,
    ),
    "scenario matrix": lambda engine: scenario_matrix.run_scenario_matrix(
        default_scenarios(scale=0.5, seed=7),
        schedulers=("VAS", "SPK3"),
        device_counts=(1, 2),
        engine=engine,
    ),
    "ablation": _ablations,
}


@dataclass(frozen=True)
class Claim:
    """One row of the ledger."""

    artifact: str
    claim: str
    paper: Optional[str]
    holds: Callable[[Any], bool]


def _array_mb_s(rows):
    return {(r["devices"], r["policy"], r["scheduler"]): r["bandwidth_mb_s"] for r in rows}


def _scenario_mb_s(rows):
    return {(r["scenario"], r["devices"], r["scheduler"]): r["bandwidth_mb_s"] for r in rows}


def _fig01_utilization(rows, pick):
    dies = pick(row["num_dies"] for row in rows)
    return max(row["chip_utilization_pct"] for row in rows if row["num_dies"] == dies)


def _all_of(checks):
    """``all(checks)``, but False when there is nothing to check.

    A projection that comes back empty (a drifted key or ``state`` label)
    must fail its claim, not pass it vacuously.
    """
    checks = list(checks)
    return bool(checks) and all(checks)


def _fig16_reductions(rows, scheduler):
    return [v for key, v in figures.reduction_vs_vas(rows).items() if key[2] == scheduler]


def _high_flp(rows):
    return figures.column_means(rows, "high_flp_pct", "scheduler")


def _fig15_utilization(rows):
    return figures.column_means(rows, "chip_utilization_pct", "num_chips", "scheduler")


def _fig16_mean_reduction(rows, scheduler):
    reductions = _fig16_reductions(rows, scheduler)
    return sum(reductions) / len(reductions)


CLAIMS = (
    Claim("Table 1", "sixteen datacenter traces are characterised", "16 traces",
          lambda rows: len(rows) == 16),
    Claim("Fig. 1", "16x more dies buy far less than 16x VAS bandwidth", None,
          lambda rows: _all_of(gain < 16.0 for gain in figures.stagnation_summary(rows).values())),
    Claim("Fig. 1", "VAS chip utilisation falls as dies are added", None,
          lambda rows: _fig01_utilization(rows, max) < _fig01_utilization(rows, min)),
    Claim("Fig. 6", "potential (SPK3) utilisation above PAS", "~55% vs ~24%",
          lambda rows: figures.utilization_averages(rows)["utilization_potential_pct"]
          > figures.utilization_averages(rows)["utilization_pas_pct"]),
    Claim("Fig. 6", "potential (SPK3) utilisation above VAS", "~55% vs ~17%",
          lambda rows: figures.utilization_averages(rows)["utilization_potential_pct"]
          > figures.utilization_averages(rows)["utilization_vas_pct"]),
    Claim("Fig. 10", "SPK3 bandwidth above VAS on every trace", ">=2.2x",
          lambda rows: _all_of(r > 1.0
                               for r in figures.speedups_over(rows, "VAS", "SPK3").values())),
    Claim("Fig. 10", "SPK3 bandwidth at least PAS on every trace", ">=1.8x",
          lambda rows: _all_of(r >= 1.0
                               for r in figures.speedups_over(rows, "PAS", "SPK3").values())),
    Claim("Fig. 10", "SPK3 cuts mean latency vs VAS by more than 20%", "56.6%-92.3%",
          lambda rows: statistics.mean(figures.latency_reduction(rows, "VAS", "SPK3").values())
          > 0.2),
    Claim("Fig. 11", "SPK3 cuts inter-chip idleness vs VAS", "~46.1%",
          lambda rows: figures.mean_reduction(rows, "inter_chip_idleness_pct", "VAS", "SPK3")
          > 0.0),
    Claim("Fig. 11", "SPK1 cuts intra-chip idleness vs VAS", None,
          lambda rows: figures.mean_reduction(rows, "intra_chip_idleness_pct", "VAS", "SPK1")
          > 0.0),
    Claim("Fig. 12", "msnfs1: SPK3 latency more than 20% below VAS", "~80%",
          lambda data: data["latency_reduction"]["SPK3_vs_VAS"] > 0.2),
    Claim("Fig. 12", "msnfs1: SPK3 latency below PAS", "~64%",
          lambda data: data["latency_reduction"]["SPK3_vs_PAS"] > 0.0),
    Claim("Fig. 13", "SPK3 eliminates system idle time vs PAS", "40.5%",
          lambda rows: figures.mean_reduction(rows, "system_idle_pct", "PAS", "SPK3") > 0.0),
    Claim("Fig. 13", "SPK3 eliminates system idle time vs VAS", "50.7%",
          lambda rows: figures.mean_reduction(rows, "system_idle_pct", "VAS", "SPK3") > 0.0),
    Claim("Fig. 14", "SPK3 high-FLP share at least PAS", None,
          lambda rows: _high_flp(rows)["SPK3"] >= _high_flp(rows)["PAS"]),
    Claim("Fig. 14", "SPK1 high-FLP share at least PAS", None,
          lambda rows: _high_flp(rows)["SPK1"] >= _high_flp(rows)["PAS"]),
    Claim("Fig. 15", "64 chips: SPK3 utilisation above VAS", "71.2% vs 37%",
          lambda rows: _fig15_utilization(rows)[(64, "SPK3")]
          > _fig15_utilization(rows)[(64, "VAS")]),
    Claim("Fig. 15", "256 chips: SPK3 utilisation above VAS", "61.5% vs 21.2%",
          lambda rows: _fig15_utilization(rows)[(256, "SPK3")]
          > _fig15_utilization(rows)[(256, "VAS")]),
    Claim("Fig. 15", "VAS utilisation falls from 64 to 256 chips", "37% -> 21.2%",
          lambda rows: _fig15_utilization(rows)[(256, "VAS")]
          < _fig15_utilization(rows)[(64, "VAS")]),
    Claim("Fig. 16", "SPK3 cuts transactions vs VAS by over 30% at some size", "~50.2% average",
          lambda rows: max(_fig16_reductions(rows, "SPK3")) > 0.3),
    Claim("Fig. 16", "SPK3 never needs more transactions than VAS", None,
          lambda rows: _all_of(value >= 0.0 for value in _fig16_reductions(rows, "SPK3"))),
    Claim("Fig. 16", "SPK3 cuts more transactions than SPK2, averaged over transfer sizes", None,
          lambda rows: _fig16_mean_reduction(rows, "SPK3") > _fig16_mean_reduction(rows, "SPK2")),
    Claim("Fig. 17", "GC costs every scheduler some but not all bandwidth", "SPK3 loses 33-78%",
          lambda rows: _all_of(0.0 < v < 1.0 for v in figures.gc_degradation(rows).values())),
    Claim("Fig. 17", "under GC, SPK3 with the callback stays above 1.2x VAS", "~2x",
          lambda rows: _all_of(v > 1.2 for v in figures.fragmented_advantage(rows).values())),
    Claim("Fig. 17", "GC fires on every fragmented run", None,
          lambda rows: _all_of(row["gc_invocations"] > 0
                               for row in rows if row["state"] == "fragmented")),
    Claim("array", "4-device stripe out-runs 1 device under SPK3", None,
          lambda rows: _array_mb_s(rows)[(4, "stripe", "SPK3")]
          > _array_mb_s(rows)[(1, "stripe", "SPK3")]),
    Claim("array", "SPK3 above VAS on a 4-device stripe", None,
          lambda rows: _array_mb_s(rows)[(4, "stripe", "SPK3")]
          > _array_mb_s(rows)[(4, "stripe", "VAS")]),
    Claim("scenario matrix", "bursty tenants: SPK3 above VAS on one device", None,
          lambda rows: _scenario_mb_s(rows)[("bursty", 1, "SPK3")]
          > _scenario_mb_s(rows)[("bursty", 1, "VAS")]),
    Claim("scenario matrix", "steady traffic: striping over 2 devices adds bandwidth", None,
          lambda rows: _scenario_mb_s(rows)[("steady", 2, "SPK3")]
          > _scenario_mb_s(rows)[("steady", 1, "SPK3")]),
    Claim("ablation", "FARO over-commitment coalesces at least as much as one per visit", None,
          lambda r: r["paper"].coalescing_degree >= r["overcommit_limit=1"].coalescing_degree),
    Claim("ablation", "RIOS channel-striped bandwidth at least 0.9x channel-first", None,
          lambda r: r["paper"].bandwidth_kb_s >= 0.9 * r["channel_first"].bandwidth_kb_s),
    Claim("ablation", "queue depth 64 bandwidth at least 0.9x queue depth 4", None,
          lambda r: r["queue_depth=64"].bandwidth_kb_s >= 0.9 * r["queue_depth=4"].bandwidth_kb_s),
)


@pytest.fixture(scope="module")
def artifact_rows(tmp_path_factory):
    """Rows of each artifact, computed on first use through one shared engine.

    Two worker processes roughly halve the ledger's wall time; the process
    backend's results are bit-identical to serial (``tests/test_engine.py``).
    """
    engine = ExecutionEngine(
        "process", max_workers=2, cache_dir=tmp_path_factory.mktemp("claims-cache")
    )
    return functools.cache(lambda artifact: ARTIFACTS[artifact](engine))


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: f"{c.artifact}: {c.claim}")
def test_claim_holds(claim, artifact_rows):
    assert claim.holds(artifact_rows(claim.artifact)), (
        f"{claim.artifact}: {claim.claim} (paper: {claim.paper or 'ordering only'})"
    )


#: Claims over a list of rows (Fig. 12 and the ablations produce dicts).
ROW_CLAIMS = [claim for claim in CLAIMS if claim.artifact not in ("Fig. 12", "ablation")]


@pytest.mark.parametrize("claim", ROW_CLAIMS, ids=lambda c: f"{c.artifact}: {c.claim}")
def test_claim_fails_on_no_rows(claim):
    """A claim never holds over no rows: it returns False or raises."""
    try:
        holds = claim.holds([])
    except Exception:
        return
    assert holds is False, f"{claim.artifact}: {claim.claim} holds over no rows"
