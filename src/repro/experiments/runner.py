"""Paper-specific experiment ingredients.

The experiments declare their grids with :mod:`repro.experiments.spec`
and execute them through :mod:`repro.experiments.engine`.  This module
holds what they share: the scheduler list, the experiment scales, the
datacenter trace specs, the evaluation-platform config and the
row-over-baseline ratios their summaries are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Sequence, Tuple

from repro.experiments.spec import WorkloadSpec
from repro.sim.config import SimulationConfig
from repro.workloads.datacenter import DATACENTER_TRACE_NAMES

#: The three schedulers most figures compare, plus the two Sprinkler ablations.
ALL_SCHEDULERS = ("VAS", "PAS", "SPK1", "SPK2", "SPK3")


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling how big (and slow) an experiment run is.

    ``quick()``, the trace-driven figures' default, keeps every experiment
    in the seconds range on a laptop.
    """

    requests_per_trace: int = 200
    requests_per_point: int = 48
    num_chips: int = 64
    traces: Tuple[str, ...] = DATACENTER_TRACE_NAMES
    seed: int = 7

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """The trace-driven figures' default scale: seconds per figure."""
        return cls(
            requests_per_trace=160,
            requests_per_point=32,
            num_chips=64,
            traces=("cfs0", "cfs3", "hm0", "msnfs1", "msnfs3", "proj0", "proj2", "proj4"),
        )


def default_workload_specs(scale: ExperimentScale) -> Dict[str, WorkloadSpec]:
    """Declarative specs for the datacenter traces the trace-driven figures use."""
    return {
        name: WorkloadSpec.datacenter(
            name, num_requests=scale.requests_per_trace, seed=scale.seed
        )
        for name in scale.traces
    }


def paper_config(scale: ExperimentScale, **overrides) -> SimulationConfig:
    """The evaluation-platform configuration at the experiment's chip count."""
    return SimulationConfig.paper_scale(scale.num_chips, **overrides)


def ratios(
    rows: Sequence[Mapping[str, Any]],
    metric: str,
    column: str,
    baseline: Any,
    point: Sequence[str],
) -> Dict[Tuple[Any, ...], float]:
    """``metric`` of each row over that of its baseline row.

    A row's baseline row has ``column == baseline`` and the same values in
    the ``point`` columns: ``ratios(rows, "bandwidth_kb_s", "scheduler",
    "VAS", ("trace",))`` divides every scheduler's bandwidth by the VAS
    bandwidth on the same trace.  Keyed ``(*point values, row[column])`` in
    row order; baseline rows, and rows whose baseline is missing or not
    positive, are left out.
    """
    base = {
        tuple(row[name] for name in point): float(row[metric])
        for row in rows
        if row[column] == baseline
    }
    out: Dict[Tuple[Any, ...], float] = {}
    for row in rows:
        at = tuple(row[name] for name in point)
        if row[column] != baseline and base.get(at, 0.0) > 0.0:
            out[(*at, row[column])] = float(row[metric]) / base[at]
    return out
