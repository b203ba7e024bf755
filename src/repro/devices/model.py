"""The validated form of one zoo device definition."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Tuple

from repro.flash.geometry import SSDGeometry
from repro.flash.timing import FlashTiming

@dataclass(frozen=True)
class DeviceModel:
    """One device of the zoo: identity, shape, timing and device-level knobs.

    The model is the in-memory form of a ``zoo/*.toml`` definition, already
    validated field-by-field by
    :func:`repro.devices.loader.load_device_file`.  :meth:`to_config`
    composes it into the :class:`~repro.sim.config.SimulationConfig` the
    simulator runs; job fingerprints hash that resolved config, so any edit
    to a zoo file changes the fingerprint of exactly the jobs that resolve
    that device, and nothing else.
    """

    name: str
    description: str
    cell: str
    generation: int
    tags: FrozenSet[str]
    geometry: SSDGeometry
    timing: FlashTiming
    #: Sorted ``(field, value)`` pairs for the device-level SimulationConfig
    #: knobs ([config] section): queue depth, GC on/off, OP fraction ...
    settings: Tuple[Tuple[str, Any], ...] = ()
    #: Path the definition was loaded from; error-message context only -
    #: ``to_config`` leaves it out, so moving a file between zoo
    #: directories does not invalidate cached results.
    source: str = ""

    def to_config(self):
        """Compose the full :class:`~repro.sim.config.SimulationConfig`."""
        from repro.sim.config import SimulationConfig  # lazy: avoids import cycle

        return SimulationConfig(geometry=self.geometry, timing=self.timing, **dict(self.settings))

    def summary_row(self) -> dict:
        """One row of the zoo listing tables (README / example output)."""
        geometry = self.geometry
        return {
            "name": self.name,
            "cell": self.cell,
            "generation": self.generation,
            "chips": geometry.num_chips,
            "channels": geometry.num_channels,
            "planes": geometry.num_planes,
            "capacity_mb": geometry.capacity_bytes // (1024 * 1024),
            "page_kb": geometry.page_size_bytes / 1024.0,
            "read_us": self.timing.read_ns / 1000.0,
            "program_us": self.timing.program_fast_ns / 1000.0,
            "tags": ",".join(sorted(self.tags)),
        }
