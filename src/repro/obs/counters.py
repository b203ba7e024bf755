"""Counter registry: named monotonic counters snapshotted into results.

The design keeps the hot paths free of registry machinery: components count
with plain integer attributes on branches they already own (the conflict
scan of PAS ``next_composition``, the busy-bit clear in
``finish_transaction``, the batch loop of ``SSDSimulator.run``), and the simulator folds everything into
one :class:`CounterRegistry` only when the final
:class:`~repro.metrics.report.SimulationResult` is assembled.  The registry
is therefore an aggregation and naming vehicle, not a live dependency of the
event loop - the zero-overhead-when-off contract of :mod:`repro.obs.trace`
extends to counters.

Counter names are dotted, ``subsystem.metric`` style (``gc.triggers``,
``events.largest_batch``, ``chip.busy_transitions``); snapshots are plain
``{name: int}`` dicts in sorted key order, so results stay picklable,
value-comparable and deterministic across backends.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping


class CounterRegistry:
    """Named integer counters with a deterministic snapshot."""

    __slots__ = ("_values",)

    def __init__(self, initial: Mapping[str, int] | None = None) -> None:
        self._values: Dict[str, int] = {}
        if initial:
            self.update(initial)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to a counter (creating it at zero)."""
        self._values[name] = self._values.get(name, 0) + amount

    def record_max(self, name: str, value: int) -> None:
        """Raise a high-water-mark counter to ``value`` if it is larger."""
        if value > self._values.get(name, 0):
            self._values[name] = value

    def update(self, values: Mapping[str, int]) -> None:
        """Merge a mapping of counters (overwriting existing names)."""
        for name, value in values.items():
            self._values[name] = int(value)

    def snapshot(self) -> Dict[str, int]:
        """Plain dict of every counter, in sorted name order."""
        return {name: self._values[name] for name in sorted(self._values)}

    def __repr__(self) -> str:
        return f"CounterRegistry({self.snapshot()!r})"


def merge_counter_snapshots(snapshots: Iterable[Mapping[str, int]]) -> Dict[str, int]:
    """Sum per-result counter snapshots into one (sorted) aggregate.

    High-water marks (``*.largest_batch``) take the max instead of the sum -
    a maximum over sub-runs is the only aggregate that keeps its meaning.
    """
    merged = CounterRegistry()
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if name.endswith(".largest_batch"):
                merged.record_max(name, int(value))
            else:
                merged.increment(name, int(value))
    return merged.snapshot()
