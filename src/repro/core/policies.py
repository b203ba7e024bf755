"""Scheduler registry / factory.

``make_scheduler`` builds any of the five schedulers evaluated in the paper
by name.  Experiment code and tests use this single entry point so that
adding a new policy (or an ablation variant) only requires registering it
here.
"""

from __future__ import annotations

from typing import Dict

from repro.core.pas import PhysicalAddressScheduler
from repro.core.scheduler import SchedulerBase, SchedulerContext
from repro.core.sprinkler import Sprinkler
from repro.core.vas import VirtualAddressScheduler

#: Names of the five schedulers compared throughout the paper's evaluation.
SCHEDULER_NAMES = ("VAS", "PAS", "SPK1", "SPK2", "SPK3")


def make_scheduler(
    name: str,
    context: SchedulerContext,
    **kwargs,
) -> SchedulerBase:
    """Build a scheduler by its paper name.

    ``kwargs`` are forwarded to the Sprinkler constructor for the SPK
    variants (e.g. ``overcommit_limit`` or ``channel_first_traversal`` for
    ablations); VAS and PAS accept no extra options.
    """
    normalized = name.strip().upper()
    if normalized == "VAS":
        _reject_kwargs(normalized, kwargs)
        return VirtualAddressScheduler(context)
    if normalized == "PAS":
        _reject_kwargs(normalized, kwargs)
        return PhysicalAddressScheduler(context)
    if normalized == "SPK1":
        return Sprinkler(context, use_rios=False, use_faro=True, **kwargs)
    if normalized == "SPK2":
        return Sprinkler(context, use_rios=True, use_faro=False, **kwargs)
    if normalized == "SPK3":
        return Sprinkler(context, use_rios=True, use_faro=True, **kwargs)
    raise ValueError(
        f"unknown scheduler {name!r}; expected one of {', '.join(SCHEDULER_NAMES)}"
    )


def _reject_kwargs(name: str, kwargs: Dict[str, object]) -> None:
    if kwargs:
        raise TypeError(f"scheduler {name} accepts no extra options, got {sorted(kwargs)}")
