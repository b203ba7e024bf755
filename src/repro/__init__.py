"""repro: a reproduction of "Sprinkler: Maximizing Resource Utilization in
Many-Chip Solid State Disks" (Jung & Kandemir, HPCA 2014).

The package provides:

* a discrete-event many-chip SSD simulator (:mod:`repro.sim`) with a full
  flash substrate (:mod:`repro.flash`), FTL (:mod:`repro.ftl`) and NVMHC
  (:mod:`repro.nvmhc`),
* the paper's schedulers - VAS, PAS and the Sprinkler variants SPK1/2/3 -
  in :mod:`repro.core`,
* workload generators and trace tooling in :mod:`repro.workloads`,
* the scenario engine - arrival processes, trace transforms, multi-tenant
  phases and workload characterization - in :mod:`repro.scenarios`,
* the metrics the paper reports in :mod:`repro.metrics`,
* the paper's tables and figures as one artifact table in
  :mod:`repro.experiments` (``python -m repro.experiments <artifact>``).

Quickstart::

    from repro import SimulationConfig, SSDSimulator, generate_random_workload

    workload = generate_random_workload(num_requests=256, size_bytes=16 * 1024)
    result = SSDSimulator(SimulationConfig.paper_scale(64), "SPK3").run(workload)
    print(result.summary_row())
"""

from repro.core import SCHEDULER_NAMES, Sprinkler, make_scheduler
from repro.flash import FlashTiming, SSDGeometry
from repro.metrics import SimulationResult, format_table
from repro.sim import SimulationConfig, SSDSimulator
from repro.workloads import (
    DATACENTER_TRACE_NAMES,
    IOKind,
    IORequest,
    generate_datacenter_trace,
    generate_random_workload,
    generate_sequential_workload,
)

__version__ = "1.0.0"

#: Experiment-layer classes re-exported lazily so that plain ``import repro``
#: (the single-simulation quickstart path) does not pay for importing the
#: whole experiment suite (the artifact table, argparse, concurrent.futures).
_LAZY_EXPORTS = {
    "ExecutionEngine": "repro.experiments.engine",
    "ExperimentSpec": "repro.experiments.spec",
    "SimJob": "repro.experiments.spec",
    "WorkloadSpec": "repro.experiments.spec",
    "Phase": "repro.scenarios",
    "Scenario": "repro.scenarios",
    "Tenant": "repro.scenarios",
}


def __getattr__(name):
    if name in _LAZY_EXPORTS:
        import importlib

        return getattr(importlib.import_module(_LAZY_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "SCHEDULER_NAMES",
    "Sprinkler",
    "make_scheduler",
    "ExecutionEngine",
    "ExperimentSpec",
    "Phase",
    "Scenario",
    "SimJob",
    "Tenant",
    "WorkloadSpec",
    "FlashTiming",
    "SSDGeometry",
    "SimulationResult",
    "format_table",
    "SimulationConfig",
    "SSDSimulator",
    "DATACENTER_TRACE_NAMES",
    "IOKind",
    "IORequest",
    "generate_datacenter_trace",
    "generate_random_workload",
    "generate_sequential_workload",
    "__version__",
]
