#!/usr/bin/env python
"""Quickstart: simulate one workload on a many-chip SSD with Sprinkler.

This is the smallest useful use of the library: build a 64-chip SSD, generate
a synthetic random-read workload, run it under the Sprinkler scheduler (SPK3)
and print the headline metrics the paper reports (bandwidth, IOPS, latency,
chip utilisation, flash-level parallelism).

Run with::

    python examples/quickstart.py

This is the lowest-level, single-simulation API.  For grids of simulations
(many workloads x schedulers x configs) declare an ``ExperimentSpec`` and run
it through ``repro.experiments.engine.ExecutionEngine`` instead - see
``examples/scheduler_comparison.py``.
"""

from repro import SimulationConfig, SSDSimulator, format_table
from repro.workloads import generate_random_workload

KB = 1024


def main() -> None:
    # A 64-chip SSD (8 channels x 8 chips, 2 dies x 2 planes per chip) with
    # the paper's NAND timing: 20us reads, 200-2200us MLC programs, ONFI 2.x.
    config = SimulationConfig.paper_scale(num_chips=64)

    # 256 random 16KB reads arriving back-to-back.
    workload = generate_random_workload(
        num_requests=256,
        size_bytes=16 * KB,
        address_space_bytes=256 * 1024 * KB,
        read_fraction=0.8,
        interarrival_ns=2_000,
        seed=42,
    )

    result = SSDSimulator(config, "SPK3").run(workload, workload_name="quickstart")

    print(format_table([result.summary_row()], title="Sprinkler (SPK3) on a 64-chip SSD"))
    print("FLP breakdown:", {k: f"{100 * v:.0f}%" for k, v in result.flp_fractions().items()})


if __name__ == "__main__":
    main()
