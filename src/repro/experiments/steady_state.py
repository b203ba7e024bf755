"""Steady-state sweep: over-provisioning x fill-state x scheduler.

Beyond the paper: every figure in the original evaluation (except the
Figure 17 GC stress) measures a factory-fresh SSD.  Deployed many-chip
devices spend their lives in the opposite regime - full, fragmented and
garbage-collecting - and that is where the utilization/idleness trade the
paper studies is hardest.  This experiment sweeps:

* **over-provisioning** - the spare-capacity reserve (7%, 15%, 28% -
  consumer, mainstream and enterprise points);
* **fill state** - ``fresh`` (factory), ``aged`` (fast-forwarded to 85%
  full / 30% invalid with an 80/20 overwrite skew) and ``steady``
  (additionally driven until write amplification converges);
* **scheduler** - VAS, PAS and the three Sprinkler variants (SPK1 =
  FARO-only, SPK2 = RIOS-only, SPK3 = both),

under the sustained random-write scenario from
:func:`repro.scenarios.library.sustained_write_scenario`, whose address
window is sized to the aged live region so every request overwrites live
data.  Reported per cell: bandwidth, run write amplification, GC activity
and wear spread.  Expected shape: WA falls as over-provisioning grows, the
aged/steady states cost every scheduler bandwidth, and the readdressing
callback lets the Sprinkler variants keep more of it (the Figure 17 story,
now measured on its natural steady-state footing).

The device states ride inside each job's ``SimulationConfig`` and therefore
inside the engine's content fingerprints: aged-device sweeps parallelise
(``--backend process``) and cache (``--cache-dir``) exactly like fresh ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.engine import ExecutionEngine
from repro.experiments.runner import ratios
from repro.experiments.spec import ExperimentSpec, SimJob, WorkloadSpec
from repro.lifetime.state import DeviceState
from repro.scenarios.library import aged_device_state, sustained_write_scenario
from repro.sim.config import SimulationConfig

KB = 1024

DEFAULT_SCHEDULERS = ("VAS", "PAS", "SPK1", "SPK2", "SPK3")
DEFAULT_OVERPROVISIONING = (0.07, 0.15, 0.28)
DEFAULT_FILL_STATES = ("fresh", "aged", "steady")
#: Host write size and request count of the sustained overwrite workload,
#: and the chips of every device.
WRITE_SIZE_KB = 16
REQUESTS_PER_POINT = 96
NUM_CHIPS = 64


def device_state_for(name: str) -> Optional[DeviceState]:
    """The canned :class:`DeviceState` behind a fill-state name.

    ``fresh`` is ``None`` (factory device), ``aged`` the fast-forwarded
    fill, ``steady`` the fill plus WA-convergence aging.
    """
    if name == "fresh":
        return None
    if name == "aged":
        return aged_device_state()
    if name == "steady":
        return aged_device_state(steady_state=True)
    raise ValueError(f"unknown fill state {name!r}; expected fresh/aged/steady")


def build_spec(
    overprovisioning: Sequence[float] = DEFAULT_OVERPROVISIONING,
    fill_states: Sequence[str] = DEFAULT_FILL_STATES,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
) -> ExperimentSpec:
    """Declare the steady-state grid, keyed ``(op, state, scheduler)``.

    Geometry follows the Figure 17 recipe (paper-scale chip counts, scaled
    blocks so preconditioning stays fast; GC frequency depends on occupancy
    fractions, not absolute block counts).  One shared workload covers the
    whole grid: its address window is the aged live region at the *highest*
    swept over-provisioning, so the same trace overwrites live data in
    every cell and WA differences are attributable to the device state
    alone.  VAS/PAS run without the readdressing callback, Sprinkler
    variants with it (the paper's setup).
    """
    base = SimulationConfig.paper_scale(NUM_CHIPS)
    geometry = base.geometry.scaled(blocks_per_plane=16, pages_per_block=32)
    max_op = max(overprovisioning)
    smallest_logical = int(geometry.total_pages * (1.0 - max_op))
    reference_state = aged_device_state()
    live_bytes = int(
        smallest_logical * reference_state.fill_fraction * geometry.page_size_bytes
    )
    scenario = sustained_write_scenario(
        num_requests=REQUESTS_PER_POINT,
        size_bytes=WRITE_SIZE_KB * KB,
        address_space_bytes=max(live_bytes, 2 * WRITE_SIZE_KB * KB),
    )
    workload = WorkloadSpec.scenario(scenario)
    jobs: List[SimJob] = []
    for op in overprovisioning:
        for state_name in fill_states:
            state = device_state_for(state_name)
            for scheduler in schedulers:
                config = base.with_overrides(
                    geometry=geometry,
                    gc_enabled=True,
                    overprovisioning_fraction=op,
                    device_state=state,
                    readdressing_callback=None if scheduler.startswith("SPK") else False,
                )
                jobs.append(
                    SimJob(
                        workload=workload,
                        scheduler=scheduler,
                        config=config,
                        key=(op, state_name, scheduler),
                    )
                )
    return ExperimentSpec("steady_state", tuple(jobs))


def run_steady_state(
    overprovisioning: Sequence[float] = DEFAULT_OVERPROVISIONING,
    fill_states: Sequence[str] = DEFAULT_FILL_STATES,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    *,
    engine: Optional[ExecutionEngine] = None,
) -> List[Dict[str, object]]:
    """Execute the grid; one row per ``(op, state, scheduler)`` cell."""
    spec = build_spec(overprovisioning, fill_states, schedulers)
    results = (engine or ExecutionEngine()).run(spec)
    rows: List[Dict[str, object]] = []
    for job in spec.jobs:
        op, state_name, scheduler = job.key
        result = results[job.key]
        lifetime = result.lifetime
        rows.append(
            {
                "overprovisioning": op,
                "state": state_name,
                "scheduler": scheduler,
                "bandwidth_kb_s": round(result.bandwidth_kb_s, 1),
                "write_amplification": round(result.write_amplification, 3),
                "gc_invocations": result.gc_stats.invocations if result.gc_stats else 0,
                "pages_migrated": result.gc_stats.pages_migrated if result.gc_stats else 0,
                "blocks_erased": result.gc_stats.blocks_erased if result.gc_stats else 0,
                "wear_spread": result.wear_spread,
                "steady_passes": lifetime.steady_state_passes if lifetime else 0,
                "steady_converged": lifetime.steady_state_converged if lifetime else False,
                "steady_wa": round(lifetime.steady_state_wa, 3) if lifetime else 0.0,
            }
        )
    return rows


def wa_by_overprovisioning(
    rows: Sequence[Dict[str, object]],
) -> Dict[str, Tuple[Tuple[float, float], ...]]:
    """Per scheduler: ``(op, write_amplification)`` points of ``rows``.

    The headline curve of the sweep - more spare capacity, less
    amplification - in a shape ready for plotting or asserting monotonicity.
    Pass the rows of one fill state.
    """
    curves: Dict[str, List[Tuple[float, float]]] = {}
    for row in rows:
        curves.setdefault(str(row["scheduler"]), []).append(
            (float(row["overprovisioning"]), float(row["write_amplification"]))
        )
    return {
        scheduler: tuple(sorted(points)) for scheduler, points in sorted(curves.items())
    }


def aging_cost(rows: Sequence[Dict[str, object]]) -> Dict[tuple, float]:
    """Relative bandwidth lost going fresh -> steady, per ``(op, scheduler)``."""
    pairs = ratios(rows, "bandwidth_kb_s", "state", "fresh", ("overprovisioning", "scheduler"))
    return {
        (op, scheduler): round(1.0 - ratio, 3)
        for (op, scheduler, state), ratio in pairs.items()
        if state == "steady"
    }
