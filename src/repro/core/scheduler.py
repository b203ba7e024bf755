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
* :meth:`SchedulerBase.on_tag_retired` - an I/O fully completed and left the
  device queue.

The *order* in which ``next_composition`` returns requests is the scheduler
policy; everything downstream (controllers, transaction building, timing) is
identical across schedulers, exactly as in the paper.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional

from repro.flash.controller import FlashController
from repro.flash.geometry import SSDGeometry
from repro.flash.request import MemoryRequest
from repro.nvmhc.tag import Tag


@dataclass
class SchedulerContext:
    """Everything a scheduler needs to know about the device it runs on."""

    geometry: SSDGeometry
    controllers: Dict[int, FlashController]


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

    def observability_counters(self) -> Dict[str, int]:
        """Scheduler-specific counter snapshot folded into the registry.

        Subclasses return their policy-specific counters (RIOS traversal
        visits, VAS head-of-line stalls, PAS conflict skips, Sprinkler
        bursts).
        """
        return {}

    # ------------------------------------------------------------------
    # Queue events
    # ------------------------------------------------------------------
    def register_tag(self, tag: Tag, now_ns: int) -> None:
        """A new tag entered the device queue."""
        self.tags[tag.io.io_id] = tag

    def on_tag_retired(self, tag: Tag) -> None:
        """A tag completed and left the device queue."""
        del self.tags[tag.io.io_id]

    # ------------------------------------------------------------------
    # Composition policy (the heart of each scheduler)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def next_composition(self, now_ns: int) -> Optional[MemoryRequest]:
        """Return the next memory request to compose/commit, or ``None``."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _busy_mask(self) -> int:
        """OR of every controller's busy mask: chips holding outstanding work."""
        busy = 0
        for controller in self.context.controllers.values():
            busy |= controller.busy_bits
        return busy

    def __repr__(self) -> str:
        return f"{type(self).__name__}(tags={len(self.tags)})"
