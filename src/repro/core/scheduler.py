"""Scheduler interface shared by VAS, PAS and Sprinkler.

A scheduler lives inside the NVMHC.  The simulator drives it through a small
interface:

* :meth:`SchedulerBase.register_tag` - a host I/O was admitted into the
  device queue and (for layout-aware schedulers) its physical footprint has
  been identified by the preprocessor.
* :meth:`SchedulerBase.next_composition` - the composition/DMA pipeline is
  idle; return the next memory request to compose and commit, or ``None`` if
  the policy has nothing eligible right now (e.g. VAS blocked on a chip
  conflict).
* :meth:`SchedulerBase.on_transaction_complete` - a chip finished a
  transaction; conflict-based policies may now have new eligible work.
* :meth:`SchedulerBase.on_tag_retired` - an I/O fully completed and left the
  device queue.

The *order* in which ``next_composition`` returns requests is the scheduler
policy; everything downstream (controllers, transaction building, timing) is
identical across schedulers, exactly as in the paper.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.flash.controller import FlashController
from repro.flash.geometry import SSDGeometry
from repro.flash.request import MemoryRequest
from repro.flash.transaction import FlashTransaction
from repro.nvmhc.tag import Tag
from repro.obs.trace import NULL_SINK, TraceSink


@dataclass
class SchedulerContext:
    """Everything a scheduler needs to know about the device it runs on."""

    geometry: SSDGeometry
    controllers: Dict[int, FlashController]

    def controller_for(self, chip_key: tuple) -> FlashController:
        """Flash controller responsible for a chip."""
        channel, _ = chip_key
        return self.controllers[channel]

    def outstanding(self, chip_key: tuple) -> int:
        """Committed-but-uncompleted memory requests currently on a chip."""
        return self.controller_for(chip_key).outstanding_count(chip_key)

    def chip_has_outstanding(self, chip_key: tuple) -> bool:
        """True when the chip already holds committed or in-flight work."""
        return self.controller_for(chip_key).has_outstanding(chip_key)


class SchedulerBase(abc.ABC):
    """Base class for device-level I/O schedulers."""

    #: Human-readable scheduler name (``VAS``, ``PAS``, ``SPK1`` ...).
    name: str = "base"
    #: True when the scheduler may over-commit requests to busy chips.
    allows_overcommit: bool = False
    #: True when the readdressing callback retargets this scheduler's
    #: committed requests (otherwise a migration charges the stale penalty).
    uses_readdressing_callback: bool = False

    def __init__(self, context: SchedulerContext) -> None:
        self.context = context
        #: Registered, not yet retired tags keyed by ``io_id``, in arrival
        #: order (dicts keep insertion order), so retirement is one pop.
        self.tags: Dict[int, Tag] = {}
        #: Registered force-unit-access tags not yet retired.  Zero almost
        #: always, which lets hot paths skip the per-composition FUA scan.
        self._fua_live = 0
        #: Observability: trace sink plus FUA counters, all maintained on
        #: the (cold) FUA branches only.
        self.sink: TraceSink = NULL_SINK
        self._fua_seen = 0
        self._fua_barriers = 0

    def attach_trace_sink(self, sink: TraceSink) -> None:
        """Install the simulator's trace sink (default: the null sink)."""
        self.sink = sink

    def observability_counters(self) -> Dict[str, int]:
        """Scheduler-specific counter snapshot folded into the registry.

        Subclasses extend the base dict with their policy-specific counters
        (RIOS traversal visits, VAS head-of-line stalls, PAS conflict skips,
        Sprinkler bursts).
        """
        return {
            "scheduler.fua_tags": self._fua_seen,
            "scheduler.fua_barriers": self._fua_barriers,
        }

    # ------------------------------------------------------------------
    # Queue events
    # ------------------------------------------------------------------
    def register_tag(self, tag: Tag, now_ns: int) -> None:
        """A new tag entered the device queue."""
        self.tags[tag.io.io_id] = tag
        if tag.io.force_unit_access:
            self._fua_live += 1
            self._fua_seen += 1
            if self.sink.enabled:
                self.sink.instant(
                    "fua.tag",
                    category="nvmhc",
                    track="nvmhc",
                    ts_ns=now_ns,
                    io_id=tag.io_id,
                )

    def on_tag_retired(self, tag: Tag) -> None:
        """A tag completed and left the device queue."""
        del self.tags[tag.io.io_id]
        if tag.io.force_unit_access:
            self._fua_live -= 1

    # ------------------------------------------------------------------
    # Composition policy (the heart of each scheduler)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def next_composition(self, now_ns: int) -> Optional[MemoryRequest]:
        """Return the next memory request to compose/commit, or ``None``."""

    # ------------------------------------------------------------------
    # Downstream notifications
    # ------------------------------------------------------------------
    def on_transaction_complete(
        self, chip_key: tuple, transaction: FlashTransaction, now_ns: int
    ) -> None:
        """A chip finished a transaction (default: nothing to update)."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _pending_tags(self) -> List[Tag]:
        """Tags that still have uncomposed memory requests, in arrival order."""
        # Inline ``not tag.fully_composed`` as plain attribute reads: this
        # comprehension runs once per composition over the whole queue, and
        # the property/descriptor machinery dominated its profile.
        return [
            tag
            for tag in self.tags.values()
            if tag.composed_count < len(tag.memory_requests)
        ]

    def _busy_mask(self) -> int:
        """OR of every controller's busy mask: chips holding outstanding work."""
        busy = 0
        for controller in self.context.controllers.values():
            busy |= controller.busy_bits
        return busy

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(tags={len(self.tags)})"
