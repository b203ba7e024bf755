"""Workload substrate: host I/O requests and synthetic generators.

The paper evaluates Sprinkler with sixteen data-center block traces (MSR
Cambridge / SNIA IOTTA) plus synthetic transfer-size sweeps.  Production
traces are not redistributable, so :mod:`repro.workloads.datacenter`
synthesises traces whose summary statistics match Table 1 of the paper.
"""

from repro.workloads.request import IORequest, IOKind
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_mixed_workload,
    generate_random_workload,
    generate_sequential_workload,
)
from repro.workloads.datacenter import (
    DATACENTER_TRACE_NAMES,
    TraceProfile,
    datacenter_profile,
    generate_datacenter_trace,
    trace_table_row,
)

__all__ = [
    "IORequest",
    "IOKind",
    "SyntheticWorkloadConfig",
    "generate_mixed_workload",
    "generate_random_workload",
    "generate_sequential_workload",
    "DATACENTER_TRACE_NAMES",
    "TraceProfile",
    "datacenter_profile",
    "generate_datacenter_trace",
    "trace_table_row",
]
