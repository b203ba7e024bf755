"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.flash.channel import Channel
from repro.flash.chip import FlashChip
from repro.flash.controller import FlashController
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import FlashTiming
from repro.flash.transaction import TransactionBuilder
from repro.sim.config import SimulationConfig


@pytest.fixture
def small_geometry() -> SSDGeometry:
    """A tiny SSD: 2 channels x 2 chips, 2 dies x 2 planes, small blocks."""
    return SSDGeometry(
        num_channels=2,
        chips_per_channel=2,
        dies_per_chip=2,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=16,
        page_size_bytes=2048,
    )


@pytest.fixture
def timing() -> FlashTiming:
    """Default paper timing."""
    return FlashTiming()


@pytest.fixture
def fast_timing() -> FlashTiming:
    """Deterministic, simple timing for arithmetic-friendly assertions."""
    return FlashTiming(
        read_ns=20_000,
        program_fast_ns=200_000,
        program_slow_ns=200_000,
        erase_ns=1_000_000,
        bus_bytes_per_sec=200_000_000,
        command_overhead_ns=100,
        transaction_overhead_ns=200,
    )


@pytest.fixture
def small_chips(small_geometry):
    """FlashChip objects for every chip of the small geometry."""
    return {key: FlashChip(key, small_geometry) for key in small_geometry.iter_chip_keys()}


@pytest.fixture
def controller(small_geometry, fast_timing) -> FlashController:
    """Flash controller of channel 0 of the small geometry, with its chips."""
    chips = {
        key: FlashChip(key, small_geometry)
        for key in small_geometry.iter_chip_keys()
        if key[0] == 0
    }
    return FlashController(Channel(0), chips, TransactionBuilder(small_geometry, fast_timing))


@pytest.fixture
def builder(small_geometry, fast_timing) -> TransactionBuilder:
    """Transaction builder over the small geometry with simple timing."""
    return TransactionBuilder(small_geometry, fast_timing)


@pytest.fixture
def small_config(small_geometry) -> SimulationConfig:
    """Simulation config over the small geometry, GC disabled."""
    return SimulationConfig(geometry=small_geometry, gc_enabled=False)


@pytest.fixture
def test_config() -> SimulationConfig:
    """The packaged small config (8 chips), GC disabled for determinism."""
    return SimulationConfig.small(gc_enabled=False)
