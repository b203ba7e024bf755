"""Simulation engine: discrete-event core, configuration and the SSD model.

:class:`repro.sim.ssd.SSDSimulator` wires every substrate together (device
queue, DMA composer, scheduler, FTL, garbage collector, flash controllers,
channels and chips) and replays a workload against it, producing a
:class:`repro.metrics.report.SimulationResult`.
"""

from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.config import SimulationConfig
from repro.sim.ssd import SSDSimulator

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "SimulationConfig",
    "SSDSimulator",
]
