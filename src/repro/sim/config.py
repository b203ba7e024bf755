"""Simulation configuration.

:class:`SimulationConfig` bundles every knob of the simulated device:
geometry, NAND timing, queue depth, garbage collection, preconditioning and
the readdressing callback.  The defaults reproduce the paper's evaluation
platform (Section 5.1) at a scale that runs quickly in pure Python;
experiments override what they sweep.  Settings the paper fixes and no
experiment sweeps are constants next to the code that reads them: the
composition cost (:mod:`repro.nvmhc.dma`), the transaction decision window
(:mod:`repro.sim.ssd`), the GC free-block watermark
(:mod:`repro.ftl.garbage_collector`) and the stale-request penalty
(:mod:`repro.ftl.callbacks`).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.flash.geometry import SSDGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.mapping import prefill_plan

if TYPE_CHECKING:  # imported lazily at runtime (repro.lifetime imports us back)
    from repro.lifetime.state import DeviceState


def canonicalize(value) -> object:
    """Reduce a value to a stable, hashable, order-independent form.

    Supports the building blocks simulation specs are made of: (possibly
    nested, possibly frozen) dataclasses, enums, mappings, sequences and
    primitives.  The result's ``repr`` is stable across processes and Python
    sessions, so it can feed a content-addressed cache key.

    Dataclass fields declared with ``metadata={"fingerprint": False}`` are
    excluded from the canonical form.  That is how purely observational
    fields (telemetry counters, windowed tail series) can be added to result
    dataclasses without invalidating every previously recorded digest.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, canonicalize(getattr(value, f.name)))
            for f in dataclasses.fields(value)
            if f.metadata.get("fingerprint", True)
        )
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.name)
    if isinstance(value, dict):
        return ("dict",) + tuple(
            sorted((str(key), canonicalize(val)) for key, val in value.items())
        )
    if isinstance(value, (list, tuple)):
        return ("seq",) + tuple(canonicalize(item) for item in value)
    if isinstance(value, (set, frozenset)):
        # Sets are unordered; sort the canonical forms by repr (every
        # canonical form is a primitive or a tuple of primitives, whose
        # reprs are stable across sessions) so the same membership always
        # produces the same fingerprint.  ``set`` and ``frozenset`` of equal
        # membership are deliberately indistinguishable - device-zoo tag
        # sets thaw as either depending on the loader path.
        return ("set",) + tuple(sorted((canonicalize(item) for item in value), key=repr))
    if value is None or isinstance(value, (str, int, float, bool, bytes)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for fingerprinting")


def stable_fingerprint(value) -> str:
    """SHA-256 hex digest of the canonical form of ``value``."""
    return hashlib.sha256(repr(canonicalize(value)).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SimulationConfig:
    """All device and policy parameters of one simulation run."""

    geometry: SSDGeometry = field(default_factory=SSDGeometry)
    timing: FlashTiming = field(default_factory=FlashTiming)

    #: Device-level queue depth (NCQ tags).
    queue_depth: int = 64

    #: Garbage collection on/off.
    gc_enabled: bool = True
    #: Fraction of the physical capacity pre-written before the run starts
    #: (0.95 reproduces the paper's fragmented-SSD GC experiment).  The
    #: logical pages it leaves mapped must fit in ``logical_pages``.
    prefill_fraction: float = 0.0
    #: Share of the prefilled pages rewritten once more during prefill so the
    #: drive starts with a realistic mix of valid and invalid pages.
    prefill_overwrite_fraction: float = 0.3

    #: Share of the physical capacity reserved as over-provisioning: the
    #: logical space exposed to the host (and to device-state aging) is
    #: ``total_pages * (1 - overprovisioning_fraction)``.  Larger reserves
    #: give garbage collection more slack and lower write amplification -
    #: the trade the steady-state experiment sweeps.
    overprovisioning_fraction: float = 0.0
    #: Aged starting point applied before the run (fast-forward
    #: preconditioning, optionally driven to the steady-state GC plateau).
    #: ``None`` keeps the factory-fresh device.  The state is part of the
    #: config's content fingerprint, so aged jobs cache like fresh ones.
    device_state: Optional["DeviceState"] = None

    #: Readdressing callback: ``None`` means "enabled iff the scheduler is a
    #: Sprinkler variant" (the paper's setup); True/False force it.
    readdressing_callback: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        if not 0.0 <= self.prefill_fraction < 1.0:
            raise ValueError("prefill_fraction must be in [0, 1)")
        if not 0.0 <= self.prefill_overwrite_fraction < 1.0:
            raise ValueError("prefill_overwrite_fraction must be in [0, 1)")
        if not 0.0 <= self.overprovisioning_fraction < 1.0:
            raise ValueError("overprovisioning_fraction must be in [0, 1)")
        # The logical pages PageMapFTL.fill leaves mapped.
        prefilled, _ = prefill_plan(
            self.geometry.total_pages,
            self.prefill_fraction,
            self.prefill_overwrite_fraction,
        )
        if prefilled > self.logical_pages:
            raise ValueError(
                f"prefill_fraction={self.prefill_fraction} maps {prefilled} logical "
                f"pages, more than the {self.logical_pages} left by "
                f"overprovisioning_fraction={self.overprovisioning_fraction}"
            )
        if self.device_state is not None:
            if self.prefill_fraction > 0.0:
                raise ValueError(
                    "device_state and prefill_fraction are alternative "
                    "preconditioners; set only one"
                )
            if self.device_state.steady_state and not self.gc_enabled:
                raise ValueError("steady-state aging requires gc_enabled=True")

    @property
    def logical_pages(self) -> int:
        """Pages of logical space exposed after the over-provisioning reserve."""
        return int(self.geometry.total_pages * (1.0 - self.overprovisioning_fraction))

    def with_overrides(self, **overrides) -> "SimulationConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **overrides)

    @classmethod
    def small(cls, **overrides) -> "SimulationConfig":
        """A small, fast configuration for unit tests (8 chips, tiny blocks)."""
        geometry = SSDGeometry(
            num_channels=2,
            chips_per_channel=4,
            dies_per_chip=2,
            planes_per_die=2,
            blocks_per_plane=16,
            pages_per_block=32,
            page_size_bytes=2048,
        )
        config = cls(geometry=geometry)
        if overrides:
            config = config.with_overrides(**overrides)
        return config

    @classmethod
    def paper_scale(cls, num_chips: int = 64, **overrides) -> "SimulationConfig":
        """Configuration matching the paper's evaluation platform.

        ``num_chips`` must be a multiple of 8; the paper uses 64-1024 chips
        on 8-32 channels.  Block counts are scaled down (the paper's 8192
        blocks/die would only matter for capacity, not scheduling behaviour).
        """
        if num_chips % 8 != 0 or num_chips <= 0:
            raise ValueError("num_chips must be a positive multiple of 8")
        num_channels = 8 if num_chips <= 256 else 32
        chips_per_channel = num_chips // num_channels
        geometry = SSDGeometry(
            num_channels=num_channels,
            chips_per_channel=chips_per_channel,
            dies_per_chip=2,
            planes_per_die=2,
            blocks_per_plane=64,
            pages_per_block=128,
            page_size_bytes=2048,
        )
        config = cls(geometry=geometry)
        if overrides:
            config = config.with_overrides(**overrides)
        return config
