"""Pinned-seed simulator workload suites.

:mod:`repro.perf.suite` declares the canonical seven-case suite (figure
grid, large transfers, a multi-SSD array, a bursty scenario, an aged
steady-state device, a prefilled GC-thrash device and a heterogeneous zoo
array), plus a miniature ``tiny`` suite.  Every case is a tuple
of ordinary :class:`~repro.experiments.spec.SimJob` objects with a content
fingerprint.  Both suites' result digests are pinned as goldens
(``tests/data/perf_golden.json``), and ``python -m repro.obs export`` traces
any case.  Host speed is measured outside the package, by
``perfbench/run.py``.
"""

from repro.perf.suite import PerfCase, canonical_suite, tiny_suite

__all__ = [
    "PerfCase",
    "canonical_suite",
    "tiny_suite",
]
