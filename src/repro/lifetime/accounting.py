"""Lifetime accounting: host vs flash writes and write amplification.

An SSD's firmware writes more pages than the host asks for: garbage
collection (the one relocation source modelled here; wear levelling and
bad-block replacement would be others) relocates live data, and every
relocation is an extra flash program.  The ratio

    write_amplification = flash_writes / host_writes

is the single number that summarises how hard the device is working beyond
the host's demand; it is ~1.0 on a fresh drive and climbs as the drive fills
and fragments (which is exactly the regime the steady-state experiments
probe).  :class:`LifetimeAccounting` is a plain scalar snapshot of that
bookkeeping for one simulation run, kept free of any simulator imports so it
can ride inside :class:`~repro.metrics.report.SimulationResult` across
process boundaries and the engine's on-disk cache.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LifetimeAccounting:
    """Write-amplification and relocation bookkeeping for one run.

    All counters describe the *measured run only*: when a device is
    preconditioned (``prefill_fraction`` or a
    :class:`~repro.lifetime.state.DeviceState`), the writes spent building
    that starting state are reported separately in ``precondition_writes``
    and the steady-state fields, never mixed into the run's amplification.
    """

    #: Host page programs performed during the run (FTL ``translate_write``).
    host_writes: int = 0
    #: Total flash page programs: host writes plus every live-page relocation
    #: (GC migrations).
    flash_writes: int = 0
    #: ``flash_writes / host_writes`` (1.0 when the run performed no writes).
    write_amplification: float = 1.0
    #: Live-page relocations during the run (GC migrations).
    pages_relocated: int = 0
    #: Host page reads translated during the run.
    host_reads: int = 0
    #: Page programs spent fast-forwarding the device into its starting
    #: state (base fill + scattered overwrites), before the run began.
    precondition_writes: int = 0
    #: Steady-state aging driver: write passes executed before the run.
    steady_state_passes: int = 0
    #: True when the aging driver's write-amplification converged within
    #: tolerance (False when it hit the pass limit, or never ran).
    steady_state_converged: bool = False
    #: Write amplification of the final aging pass (0.0 when aging never ran).
    steady_state_wa: float = 0.0


def write_amplification(host_writes: int, flash_writes: int) -> float:
    """WA ratio with the no-writes convention (``1.0`` when nothing was written)."""
    if host_writes <= 0:
        return 1.0
    return flash_writes / host_writes
