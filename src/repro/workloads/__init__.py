"""Workload substrate: host I/O requests, synthetic generators and traces.

The paper evaluates Sprinkler with sixteen data-center block traces (MSR
Cambridge / SNIA IOTTA) plus synthetic transfer-size sweeps.  Production
traces are not redistributable, so :mod:`repro.workloads.datacenter`
synthesises traces whose summary statistics match Table 1 of the paper, and
:mod:`repro.workloads.traces` can parse real MSR-format CSV files when they
are available locally.
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
from repro.workloads.traces import (
    TraceFormatError,
    TraceRecord,
    load_msr_trace,
    parse_msr_line,
    records_to_requests,
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
    "TraceFormatError",
    "TraceRecord",
    "load_msr_trace",
    "parse_msr_line",
    "records_to_requests",
]
