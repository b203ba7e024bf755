"""Arrival-process models for the scenario engine.

The synthetic generators in :mod:`repro.workloads.synthetic` issue requests
with one fixed inter-arrival gap.  Real data-center traces are nothing like
that: the MSR Cambridge family (the paper's evaluation workloads) shows
heavy-tailed gaps, on/off bursts and day-scale rate swings.  An
:class:`ArrivalProcess` reproduces those temporal shapes as a *declarative*,
seed-deterministic recipe: every model is a frozen dataclass (so it can be
fingerprinted and pickled into an experiment spec) and :meth:`sample` draws
the same timestamp sequence in any process for a given RNG seed.

Models:

* :class:`PoissonArrivals` - memoryless exponential gaps,
* :class:`BurstyArrivals` - MMPP-style two-state on/off modulation: dense
  exponential gaps inside a burst, sparse gaps between bursts, with
  geometric burst/idle lengths,
* :class:`DiurnalArrivals` - a non-homogeneous Poisson process whose rate
  follows a sinusoidal "time of day" curve.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List


class ArrivalProcess:
    """Base class of all arrival-time models.

    Subclasses are frozen dataclasses holding only primitive parameters, so
    a process embeds cleanly into fingerprintable, picklable scenario specs.
    """

    def sample(self, num_requests: int, rng: random.Random) -> List[int]:
        """Draw ``num_requests`` non-decreasing arrival timestamps (ns).

        All randomness comes from ``rng``; two calls with equally-seeded RNGs
        return identical timestamps in any process.
        """
        raise NotImplementedError


def _cumulative(gaps: List[float]) -> List[int]:
    """Turn non-negative gaps into integer, non-decreasing timestamps."""
    times: List[int] = []
    now = 0.0
    for gap in gaps:
        now += max(0.0, gap)
        times.append(int(now))
    return times


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless Poisson arrivals with exponential gaps."""

    mean_interarrival_ns: float = 2_000.0

    def __post_init__(self) -> None:
        if self.mean_interarrival_ns <= 0:
            raise ValueError("mean_interarrival_ns must be positive")

    def sample(self, num_requests: int, rng: random.Random) -> List[int]:
        rate = 1.0 / self.mean_interarrival_ns
        return _cumulative([rng.expovariate(rate) for _ in range(num_requests)])


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """MMPP-style on/off bursty arrivals.

    The process alternates between a *burst* state (dense exponential gaps
    with mean ``burst_interarrival_ns``) and an *idle* state (sparse gaps
    with mean ``idle_interarrival_ns``).  State residency is geometric in
    requests: after each request the state flips with probability
    ``1/mean_burst_length`` (or ``1/mean_idle_length``), giving bursts of
    ``mean_burst_length`` requests on average - the discrete analogue of a
    two-state Markov-modulated Poisson process.
    """

    burst_interarrival_ns: float = 500.0
    idle_interarrival_ns: float = 20_000.0
    mean_burst_length: float = 16.0
    mean_idle_length: float = 2.0

    def __post_init__(self) -> None:
        if self.burst_interarrival_ns <= 0 or self.idle_interarrival_ns <= 0:
            raise ValueError("inter-arrival means must be positive")
        if self.burst_interarrival_ns > self.idle_interarrival_ns:
            raise ValueError("burst gaps must not exceed idle gaps")
        if self.mean_burst_length < 1 or self.mean_idle_length < 1:
            raise ValueError("mean state lengths must be >= 1 request")

    def sample(self, num_requests: int, rng: random.Random) -> List[int]:
        gaps: List[float] = []
        in_burst = True
        for _ in range(num_requests):
            mean = self.burst_interarrival_ns if in_burst else self.idle_interarrival_ns
            gaps.append(rng.expovariate(1.0 / mean))
            flip = 1.0 / (self.mean_burst_length if in_burst else self.mean_idle_length)
            if rng.random() < flip:
                in_burst = not in_burst
        return _cumulative(gaps)


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Non-homogeneous Poisson arrivals following a sinusoidal rate curve.

    The instantaneous rate is ``(1/base) * (1 + amplitude * sin(2*pi*t/period))``;
    each gap is drawn from the exponential at the current instantaneous
    rate, a standard (and for our purposes sufficient) approximation of
    rate-curve thinning.  ``period_ns`` is a compressed
    "day": sweeps shrink it to microseconds so a trace of a few hundred
    requests still sees full peak-trough cycles.
    """

    base_interarrival_ns: float = 2_000.0
    amplitude: float = 0.8
    period_ns: float = 1_000_000.0

    def __post_init__(self) -> None:
        if self.base_interarrival_ns <= 0:
            raise ValueError("base_interarrival_ns must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if self.period_ns <= 0:
            raise ValueError("period_ns must be positive")

    def rate_at(self, t_ns: float) -> float:
        """Instantaneous arrival rate (requests per ns) at time ``t_ns``."""
        base_rate = 1.0 / self.base_interarrival_ns
        modulation = 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * (t_ns / self.period_ns)
        )
        return base_rate * max(modulation, 1e-9)

    def sample(self, num_requests: int, rng: random.Random) -> List[int]:
        times: List[int] = []
        now = 0.0
        for _ in range(num_requests):
            now += rng.expovariate(self.rate_at(now))
            times.append(int(now))
        return times
