"""Host-level multi-SSD array layer.

The paper's Sprinkler scheduler maximises utilisation *inside* one many-chip
SSD; this package adds the next layer up: many independently simulated SSDs
behind one host.  :mod:`repro.array.layout` splits a host I/O trace across
devices (striping, range sharding or hashed placement) and
:mod:`repro.array.host` runs the per-device sub-traces through the shared
execution engine and merges the results.

The device-count axis this opens is swept by
:mod:`repro.experiments.array_scaling`.
"""

from repro.array.layout import KB, PLACEMENT_POLICIES, ArrayLayout, split_trace
from repro.array.host import ArrayResult, merge_device_results

__all__ = [
    "KB",
    "PLACEMENT_POLICIES",
    "ArrayLayout",
    "split_trace",
    "ArrayResult",
    "merge_device_results",
]
