"""Named counters snapshotted into results, and their merge.

The design keeps the hot paths free of counter machinery: components count
with plain integer attributes on branches they already own (the conflict
scan of PAS ``next_composition``, the busy-bit clear in
``finish_transaction``, the batch loop of ``SSDSimulator.run``), and the
simulator folds everything into one sorted dict only when the final
:class:`~repro.metrics.report.SimulationResult` is assembled.  Counters are
therefore no live dependency of the event loop - the
zero-overhead-when-off contract of :mod:`repro.obs.trace` extends to them.

Counter names are dotted, ``subsystem.metric`` style (``gc.triggers``,
``events.largest_batch``, ``chip.busy_transitions``); snapshots are plain
``{name: int}`` dicts in sorted key order, so results stay picklable,
value-comparable and deterministic across backends.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping


def merge_counter_snapshots(snapshots: Iterable[Mapping[str, int]]) -> Dict[str, int]:
    """Sum per-result counter snapshots into one (sorted) aggregate.

    High-water marks (``*.largest_batch``) take the max instead of the sum -
    a maximum over sub-runs is the only aggregate that keeps its meaning.
    """
    merged: Dict[str, int] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if name.endswith(".largest_batch"):
                merged[name] = max(merged.get(name, 0), int(value))
            else:
                merged[name] = merged.get(name, 0) + int(value)
    return dict(sorted(merged.items()))
