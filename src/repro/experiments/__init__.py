"""Experiment harness: one module per table/figure of the paper's evaluation.

Every figure module *declares* its grid of (workload, scheduler, config)
cells as an :class:`~repro.experiments.spec.ExperimentSpec` (``build_spec``)
and exposes a ``run_*`` function that executes the spec through the shared
:class:`~repro.experiments.engine.ExecutionEngine` and returns plain row
dictionaries (easy to print, assert on, or dump to CSV), plus a ``main``
entry point that prints the table and accepts the engine flags
(``--backend process --workers N --cache-dir DIR``) for parallel,
memoized runs.
"""

from repro.experiments.engine import (
    ExecutionEngine,
    add_engine_arguments,
    engine_from_args,
    engine_from_cli,
)
from repro.experiments.runner import (
    ALL_SCHEDULERS,
    ExperimentScale,
    default_workload_specs,
    paper_config,
)
from repro.experiments.spec import ArraySpec, ExperimentSpec, SimJob, WorkloadSpec
from repro.experiments import (
    array_scaling,
    scenario_matrix,
    steady_state,
    figure01,
    figure06,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    table01,
)

__all__ = [
    "ALL_SCHEDULERS",
    "ArraySpec",
    "ExecutionEngine",
    "ExperimentScale",
    "ExperimentSpec",
    "SimJob",
    "WorkloadSpec",
    "add_engine_arguments",
    "engine_from_args",
    "engine_from_cli",
    "default_workload_specs",
    "paper_config",
    "array_scaling",
    "scenario_matrix",
    "steady_state",
    "figure01",
    "figure06",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "figure17",
    "table01",
]
