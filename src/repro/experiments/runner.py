"""Paper-specific experiment ingredients.

The figure modules declare their grids with :mod:`repro.experiments.spec`
and execute them through :mod:`repro.experiments.engine`.  This module
holds what they share: the scheduler list, the experiment scales, the
datacenter trace specs and the evaluation-platform config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.spec import WorkloadSpec
from repro.sim.config import SimulationConfig
from repro.workloads.datacenter import DATACENTER_TRACE_NAMES

#: The three schedulers most figures compare, plus the two Sprinkler ablations.
ALL_SCHEDULERS = ("VAS", "PAS", "SPK1", "SPK2", "SPK3")


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling how big (and slow) an experiment run is.

    ``quick()``, the figure modules' default, keeps every experiment in the
    seconds range on a laptop; ``paper()`` approaches the paper's own
    request counts (use the engine's process backend for those).
    """

    requests_per_trace: int = 200
    requests_per_point: int = 48
    num_chips: int = 64
    traces: Tuple[str, ...] = DATACENTER_TRACE_NAMES
    seed: int = 7

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """The figure modules' default scale: seconds per figure."""
        return cls(
            requests_per_trace=160,
            requests_per_point=32,
            num_chips=64,
            traces=("cfs0", "cfs3", "hm0", "msnfs1", "msnfs3", "proj0", "proj2", "proj4"),
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """Closer to the paper's scale (slow in pure Python)."""
        return cls(requests_per_trace=3000, requests_per_point=256, num_chips=64)


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
