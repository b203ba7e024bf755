"""Experiment harness for the paper's evaluation and the beyond-the-paper grids.

Every experiment *declares* its grid of (workload, scheduler, config)
cells as an :class:`~repro.experiments.spec.ExperimentSpec`, executes it
through the shared :class:`~repro.experiments.engine.ExecutionEngine` and
returns plain row dictionaries (easy to print, assert on, or dump to CSV).
:data:`~repro.experiments.figures.ARTIFACTS` is the one table of printable
artifacts - Table 1, the paper's figures and the array, scenario and
steady-state grids - and ``python -m repro.experiments <artifact>`` prints
one, with the engine flags (``--backend process --workers N --cache-dir
DIR``) for parallel, memoized runs.
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
from repro.experiments import array_scaling, figures, scenario_matrix, steady_state
from repro.experiments.figures import ARTIFACTS

__all__ = [
    "ALL_SCHEDULERS",
    "ARTIFACTS",
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
    "figures",
    "scenario_matrix",
    "steady_state",
]
