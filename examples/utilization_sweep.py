#!/usr/bin/env python
"""Chip-utilisation sensitivity to transfer size and SSD size (Figure 15).

Sweeps the host transfer size from 4KB to 1MB on 64-chip and 256-chip SSDs
and reports the chip utilisation achieved by VAS and the three Sprinkler
variants.  The paper's shape: VAS utilisation collapses as the SSD grows,
SPK1 only helps for large transfers, SPK2 only for small ones, and SPK3 is
high and sustainable across the whole sweep.

Run with (add ``--backend process`` to parallelise over cores)::

    python examples/utilization_sweep.py
"""

from repro import format_table
from repro.experiments.engine import engine_from_cli
from repro.experiments.figures import ARTIFACTS, column_means

KB = 1024


def main() -> None:
    engine = engine_from_cli("Chip utilisation vs transfer size (Figure 15)")
    rows = ARTIFACTS["figure15"].run(
        chip_counts=(64, 256),
        transfer_sizes_kb=(4, 16, 64, 256, 1024),
        schedulers=("VAS", "SPK1", "SPK2", "SPK3"),
        requests_per_point=24,
        engine=engine,
    )
    print(format_table(rows, title="Chip utilisation vs transfer size (Figure 15)"))
    print()
    averages = column_means(rows, "chip_utilization_pct", "num_chips", "scheduler")
    print("Average utilisation across the sweep:")
    for (chips, scheduler), value in sorted(averages.items()):
        print(f"  {chips:4d} chips  {scheduler:5s} : {value:5.1f} %")


if __name__ == "__main__":
    main()
