#!/usr/bin/env python
"""Garbage-collection stress study (Figure 17 in miniature).

Compares VAS, PAS and SPK3 on a pristine SSD versus a fragmented SSD that was
pre-filled to 90% (with a realistic mix of valid and invalid pages) so that
garbage collection fires constantly.  VAS and PAS run without a readdressing
callback; SPK3 keeps its callback and therefore keeps re-spreading and
re-coalescing memory requests as live data migrates.

Run with (add ``--backend process`` to parallelise over cores)::

    python examples/garbage_collection_study.py
"""

from repro import format_table
from repro.experiments.engine import engine_from_cli
from repro.experiments.figures import ARTIFACTS, fragmented_advantage, gc_degradation


def main() -> None:
    engine = engine_from_cli("Garbage collection impact (Figure 17)")
    rows = ARTIFACTS["figure17"].run(
        chip_counts=(64,),
        transfer_sizes_kb=(16, 64, 256),
        schedulers=("VAS", "PAS", "SPK3"),
        requests_per_point=32,
        engine=engine,
    )
    print(format_table(rows, title="Garbage collection impact (Figure 17)"))
    print()
    print("Bandwidth degradation caused by GC (pristine -> fragmented):")
    for (chips, size, scheduler), value in sorted(gc_degradation(rows).items()):
        print(f"  {size:4d} KB  {scheduler:4s} : {100 * value:5.1f} %")
    print()
    print("SPK3 bandwidth advantage over VAS while GC is active:")
    for (chips, size), value in sorted(fragmented_advantage(rows).items()):
        print(f"  {size:4d} KB : {value:.2f}x")


if __name__ == "__main__":
    main()
