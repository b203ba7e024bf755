"""Device aging state: fingerprinted specs and fast-forward preconditioning.

Every experiment in the seed repository ran against a factory-fresh SSD, so
the GC-dominated steady-state regime - the one deployed many-chip devices
actually live in - was unreachable.  :class:`DeviceState` fixes that: it is a
frozen, content-fingerprintable description of an *aged* device (how full,
how fragmented, how skewed the overwrite traffic that got it there), and
:func:`apply_device_state` is a **fast-forward constructor** that programs
the FTL mapping and the per-block valid/erase bookkeeping directly - no
event simulation, no per-page allocator walk - so aging a multi-hundred-chip
device takes a tiny fraction of the time the equivalent write workload would
need through the event simulator.

Three views of the same aging recipe are kept bit-compatible, and the test
suite holds them together:

* :func:`apply_device_state` - the fast path, built from the FTL's two bulk
  primitives, the same ones the ``prefill_fraction`` preconditioner
  (``PageMapFTL.fill``) uses: ``install_base_fill`` bulk-programs the
  sequential base fill and declares it as the implicit base layout, and
  ``write_many`` applies the fragmentation overwrites as one batched,
  GC-free pass;
* :func:`replay_device_state` - the reference path, issuing every write
  through ``PageMapFTL.translate_write`` one page at a time;
* :func:`device_state_workload` - the equivalent *host workload*, which run
  through :class:`~repro.sim.ssd.SSDSimulator` (GC off) leaves the FTL in
  the same occupancy, verifiable via :func:`occupancy_fingerprint`.

The aging recipe itself: write the first ``live`` logical pages
sequentially, then perform ``overwrites`` seeded-random rewrites of already
live pages - hot/cold skewed, so invalid pages concentrate in the blocks
holding the hot set, exactly the fragmentation profile a skewed random-write
workload produces on a real drive.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.flash.geometry import SSDGeometry
from repro.ftl.mapping import PageMapFTL, PreconditionReport
from repro.workloads.request import IOKind, IORequest

#: Bump when aging semantics change in a way that must invalidate every
#: cached result computed against a preconditioned device.
LIFETIME_VERSION = 1


@dataclass(frozen=True)
class DeviceState:
    """A reproducible aged-device starting point.

    ``fill_fraction`` is the share of the *logical* space (physical capacity
    minus over-provisioning) holding live data; ``invalid_fraction`` the
    share of programmed physical pages whose contents have been superseded
    (the fragmentation GC feeds on); ``hot_fraction``/``hot_write_share``
    shape the overwrite skew (80% of overwrites hitting 20% of the data by
    default).  ``seed`` makes the overwrite scatter - and therefore the
    entire device state - deterministic.

    With ``steady_state=True`` the fast-forward fill is followed by the
    :func:`~repro.lifetime.steady.age_to_steady_state` driver, which keeps
    issuing skewed write passes (with garbage collection live) until write
    amplification converges within ``steady_tolerance``, leaving the device
    in the converged GC regime rather than the just-filled one.

    The dataclass is frozen primitives only, so it pickles, hashes and
    canonicalizes: embedded in a ``SimulationConfig`` it rides into the
    execution engine's job fingerprints, making aged-device sweeps fully
    cacheable.
    """

    fill_fraction: float = 0.9
    invalid_fraction: float = 0.30
    hot_fraction: float = 0.2
    hot_write_share: float = 0.8
    seed: int = 2014
    steady_state: bool = False
    steady_tolerance: float = 0.05
    steady_max_passes: int = 8
    steady_pass_fraction: float = 0.05
    #: Aging-semantics version, stamped as a (non-init) field so it enters
    #: every canonical form the state appears in - including
    #: ``SimulationConfig.fingerprint()`` and therefore the execution
    #: engine's cache keys.  Bumping ``LIFETIME_VERSION`` invalidates every
    #: cached result computed against a preconditioned device.
    version: int = field(init=False, default=LIFETIME_VERSION)

    def __post_init__(self) -> None:
        if not 0.0 <= self.fill_fraction <= 1.0:
            raise ValueError("fill_fraction must be in [0, 1]")
        if not 0.0 <= self.invalid_fraction < 1.0:
            raise ValueError("invalid_fraction must be in [0, 1)")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if not 0.0 <= self.hot_write_share <= 1.0:
            raise ValueError("hot_write_share must be in [0, 1]")
        if self.steady_tolerance <= 0.0:
            raise ValueError("steady_tolerance must be positive")
        if self.steady_max_passes < 1:
            raise ValueError("steady_max_passes must be at least 1")
        if not 0.0 < self.steady_pass_fraction <= 1.0:
            raise ValueError("steady_pass_fraction must be in (0, 1]")

    def fingerprint(self) -> str:
        """Stable content hash over the whole aging recipe (incl. version)."""
        # Imported lazily: repro.sim.config is reachable from modules that
        # this package imports during its own initialisation.
        from repro.sim.config import stable_fingerprint

        return stable_fingerprint(("device-state", self))

    # ------------------------------------------------------------------
    # Plan arithmetic
    # ------------------------------------------------------------------
    def precondition_plan(self, geometry: SSDGeometry, logical_pages: int) -> Tuple[int, int]:
        """``(live_pages, overwrites)`` this state implies for a geometry.

        ``live = logical * fill_fraction`` pages end up valid; overwrites
        are sized so invalid pages are ``invalid_fraction`` of all
        *programmed* pages, clamped so preconditioning always leaves at
        least one erased block per plane.  That headroom is what lets
        garbage collection bootstrap on the aged device: the first
        post-aging write can allocate, and victim migrations have somewhere
        to land before the erase frees more space.
        """
        total_pages = geometry.total_pages
        if logical_pages > total_pages:
            raise ValueError("logical_pages cannot exceed total_pages")
        live = int(logical_pages * self.fill_fraction)
        if live <= 0 or self.invalid_fraction <= 0.0:
            return max(0, live), 0
        headroom = geometry.num_planes * geometry.pages_per_block
        programmed = int(round(live / (1.0 - self.invalid_fraction)))
        overwrites = min(programmed - live, total_pages - headroom - live)
        return live, max(0, overwrites)


def hot_cold_split(live: int, hot_fraction: float) -> Tuple[int, int]:
    """``(hot, cold)`` LPN-range sizes of a skewed live set."""
    hot = min(live, int(live * hot_fraction))
    return hot, live - hot


def draw_skewed_lpn(
    rng: random.Random, hot: int, cold: int, hot_write_share: float
) -> int:
    """One hot/cold-skewed overwrite target (hot LPNs first, cold after).

    The single definition of the skew model: the fill/replay/workload
    overwrite passes *and* the steady-state aging driver all draw through
    here, so the RNG stream and the skew semantics cannot drift apart.
    """
    if hot and (cold == 0 or rng.random() < hot_write_share):
        return rng.randrange(hot)
    return hot + rng.randrange(cold)


def _overwrite_sequence(
    rng: random.Random,
    live: int,
    count: int,
    hot_fraction: float,
    hot_write_share: float,
) -> List[int]:
    """The seeded hot/cold-skewed overwrite targets, in issue order.

    Shared by the fast-forward path, the replay reference and the
    equivalent-workload builder, so all three consume the RNG identically.
    """
    if live <= 0 or count <= 0:
        return []
    hot, cold = hot_cold_split(live, hot_fraction)
    return [draw_skewed_lpn(rng, hot, cold, hot_write_share) for _ in range(count)]


def apply_device_state(
    ftl: PageMapFTL,
    state: DeviceState,
    *,
    logical_pages: int,
    rng: Optional[random.Random] = None,
) -> PreconditionReport:
    """Fast-forward a pristine device into ``state`` (bookkeeping only).

    The sequential base fill is *computed*, not replayed
    (:meth:`~repro.ftl.mapping.PageMapFTL.install_base_fill`: bulk block
    programming plus the implicit base layout, O(blocks) total), and the
    seeded overwrite pass is one batched
    :meth:`~repro.ftl.mapping.PageMapFTL.write_many` call.  Raises
    ``ValueError`` on a device that is not factory-fresh.

    Bit-identical to :func:`replay_device_state` (and to running
    :func:`device_state_workload` through the event simulator with GC off):
    same mapping, same block bits, same allocator cursor, same FTL counters.
    """
    live, overwrites = state.precondition_plan(ftl.geometry, logical_pages)
    if rng is None:
        rng = random.Random(state.seed)
    ftl.install_base_fill(live)
    ftl.write_many(
        _overwrite_sequence(
            rng, live, overwrites, state.hot_fraction, state.hot_write_share
        )
    )
    return PreconditionReport(live_pages=live, overwrites=overwrites)


def replay_device_state(
    ftl: PageMapFTL,
    state: DeviceState,
    *,
    logical_pages: int,
    rng: Optional[random.Random] = None,
) -> PreconditionReport:
    """Reference preconditioner: every write through ``translate_write``.

    Semantically *defines* what :func:`apply_device_state` fast-forwards;
    the equivalence tests compare the two occupancy fingerprints.
    """
    geometry = ftl.geometry
    live, overwrites = state.precondition_plan(geometry, logical_pages)
    if rng is None:
        rng = random.Random(state.seed)
    for lpn in range(live):
        ftl.translate_write(lpn)
    for lpn in _overwrite_sequence(
        rng, live, overwrites, state.hot_fraction, state.hot_write_share
    ):
        ftl.translate_write(lpn)
    return PreconditionReport(live_pages=live, overwrites=overwrites)


def device_state_workload(
    state: DeviceState,
    geometry: SSDGeometry,
    *,
    logical_pages: int,
    chunk_pages: int = 32,
    interarrival_ns: int = 1,
) -> List[IORequest]:
    """The host write workload equivalent to fast-forwarding into ``state``.

    Sequential base fill as ``chunk_pages``-sized writes followed by
    page-sized overwrite writes, arrival times strictly increasing so the
    simulator admits (and therefore FTL-translates) pages in exactly the
    fast-forward order.  Run it through :class:`~repro.sim.ssd.SSDSimulator`
    with ``gc_enabled=False`` and the FTL occupancy matches
    :func:`apply_device_state` byte for byte - the equivalence is asserted
    in ``tests/test_lifetime.py``.
    """
    if chunk_pages <= 0:
        raise ValueError("chunk_pages must be positive")
    live, overwrites = state.precondition_plan(geometry, logical_pages)
    rng = random.Random(state.seed)
    page = geometry.page_size_bytes
    requests: List[IORequest] = []
    now = 0
    for start in range(0, live, chunk_pages):
        pages = min(chunk_pages, live - start)
        requests.append(
            IORequest(
                kind=IOKind.WRITE,
                offset_bytes=start * page,
                size_bytes=pages * page,
                arrival_ns=now,
            )
        )
        now += interarrival_ns
    for lpn in _overwrite_sequence(
        rng, live, overwrites, state.hot_fraction, state.hot_write_share
    ):
        requests.append(
            IORequest(
                kind=IOKind.WRITE,
                offset_bytes=lpn * page,
                size_bytes=page,
                arrival_ns=now,
            )
        )
        now += interarrival_ns
    return requests


# ----------------------------------------------------------------------
# Occupancy verification
# ----------------------------------------------------------------------
def occupancy_snapshot(ftl: PageMapFTL) -> tuple:
    """Canonical value capturing the complete FTL/flash occupancy state.

    Covers the logical map (as flat PPNs), every block's write pointer,
    valid bitmask and erase count, each plane's active block and
    the allocator cursor - everything that influences future allocation and
    collection.  Two devices with equal snapshots are behaviourally
    indistinguishable.
    """
    geometry = ftl.geometry
    mapping = tuple(
        sorted((lpn, geometry.address_to_ppn(address)) for lpn, address in ftl.mapping_items())
    )
    planes = []
    for chip_key in sorted(ftl.chips):
        chip = ftl.chips[chip_key]
        for die in range(geometry.dies_per_chip):
            for plane in range(geometry.planes_per_die):
                plane_obj = chip.plane(die, plane)
                planes.append(
                    (
                        chip_key,
                        die,
                        plane,
                        plane_obj.active_block_id,
                        tuple(
                            (block.write_pointer, block.valid_mask, block.erase_count)
                            for block in plane_obj.blocks
                        ),
                    )
                )
    return ("occupancy", mapping, tuple(planes), ftl.allocator.cursor)


def occupancy_fingerprint(ftl: PageMapFTL) -> str:
    """SHA-256 digest of :func:`occupancy_snapshot` (byte-for-byte identity)."""
    return hashlib.sha256(repr(occupancy_snapshot(ftl)).encode("utf-8")).hexdigest()
