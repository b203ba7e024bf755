"""SSD geometry and physical page addressing.

A many-chip SSD (paper Section 2, Figure 2) is organised as::

    SSD -> channels -> chips -> dies -> planes -> blocks -> pages

The paper's default configuration is 8-32 channels with 8-32 chips per
channel (64-1024 chips total), each chip with 2 dies and 4 planes
(2 planes per die), 8192 blocks per die, 128 pages per block and 2 KB pages.

:class:`SSDGeometry` captures the shape, exposes derived sizes and converts
between flat page indices (used by the FTL) and structured
:class:`PhysicalPageAddress` tuples (used by the flash controllers and the
schedulers that are aware of the physical layout).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class PhysicalPageAddress(NamedTuple):
    """Fully-qualified physical location of one flash page.

    Attributes mirror the resource hierarchy of the paper: ``channel`` and
    ``chip`` are the system-level coordinates used for channel striping and
    pipelining, while ``die`` and ``plane`` are the flash-level coordinates
    that determine which flash-level parallelism (FLP) class a transaction
    can reach.

    A ``NamedTuple`` rather than a frozen dataclass: the simulator creates
    one address per translated page, per GC move and per erase sweep, and
    uses them as keys of the FTL's reverse map - tuple construction,
    hashing and ordering all run in C, where the frozen-dataclass protocol
    (``object.__setattr__`` per field on init, tuple building per hash) was
    a measurable share of write-heavy runs.  Field order is the comparison
    order, identical to the previous ``order=True`` dataclass.
    """

    channel: int
    chip: int
    die: int
    plane: int
    block: int
    page: int

    @property
    def chip_key(self) -> tuple:
        """Key identifying the physical chip this page lives on."""
        return (self.channel, self.chip)

    @property
    def die_key(self) -> tuple:
        """Key identifying the die this page lives on."""
        return (self.channel, self.chip, self.die)

    @property
    def plane_key(self) -> tuple:
        """Key identifying the plane this page lives on."""
        return (self.channel, self.chip, self.die, self.plane)

    def same_plane_as(self, other: "PhysicalPageAddress") -> bool:
        """True when both addresses live on the same plane.

        Field-wise comparison: equivalent to ``plane_key == other.plane_key``
        without constructing two tuples - the readdressing callback's
        per-move form asks this once per migrated page.
        """
        return (
            self.plane == other.plane
            and self.die == other.die
            and self.chip == other.chip
            and self.channel == other.channel
        )

    def with_block_page(self, block: int, page: int) -> "PhysicalPageAddress":
        """Return a copy of this address pointing at a different block/page."""
        return PhysicalPageAddress(
            channel=self.channel,
            chip=self.chip,
            die=self.die,
            plane=self.plane,
            block=block,
            page=page,
        )


@dataclass(frozen=True)
class SSDGeometry:
    """Static shape of the simulated SSD.

    The defaults follow the evaluation configuration in Section 5.1 of the
    paper (two dies and four planes per chip, 128 pages of 2 KB per block),
    scaled to 8192 blocks per die by default but configurable down for fast
    unit tests.
    """

    num_channels: int = 8
    chips_per_channel: int = 8
    dies_per_chip: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 256
    pages_per_block: int = 128
    page_size_bytes: int = 2048

    def __post_init__(self) -> None:
        for name in (
            "num_channels",
            "chips_per_channel",
            "dies_per_chip",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_size_bytes",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def num_chips(self) -> int:
        """Total number of flash chips in the SSD."""
        return self.num_channels * self.chips_per_channel

    @property
    def num_dies(self) -> int:
        """Total number of dies in the SSD."""
        return self.num_chips * self.dies_per_chip

    @property
    def num_planes(self) -> int:
        """Total number of planes in the SSD."""
        return self.num_dies * self.planes_per_die

    @property
    def planes_per_chip(self) -> int:
        """Number of planes inside one chip."""
        return self.dies_per_chip * self.planes_per_die

    @property
    def pages_per_plane(self) -> int:
        """Number of pages in one plane."""
        return self.blocks_per_plane * self.pages_per_block

    @property
    def pages_per_die(self) -> int:
        """Number of pages in one die."""
        return self.pages_per_plane * self.planes_per_die

    @property
    def pages_per_chip(self) -> int:
        """Number of pages in one chip."""
        return self.pages_per_die * self.dies_per_chip

    @property
    def pages_per_channel(self) -> int:
        """Number of pages behind one channel."""
        return self.pages_per_chip * self.chips_per_channel

    @property
    def total_pages(self) -> int:
        """Total number of physical pages in the SSD."""
        return self.pages_per_channel * self.num_channels

    @property
    def capacity_bytes(self) -> int:
        """Raw capacity of the SSD in bytes."""
        return self.total_pages * self.page_size_bytes

    @property
    def block_size_bytes(self) -> int:
        """Size of one erase block in bytes."""
        return self.pages_per_block * self.page_size_bytes

    # ------------------------------------------------------------------
    # Chip enumeration helpers
    # ------------------------------------------------------------------
    def chip_index(self, channel: int, chip: int) -> int:
        """Flatten a (channel, chip-in-channel) pair into a global chip id.

        Chips are numbered channel-major so that chips ``0..num_channels-1``
        are the chips at offset 0 of every channel. This matches the RIOS
        traversal order described in Section 4.1 of the paper (visit the
        chips with the same offset across channels, then increase the
        offset).
        """
        self._check_range("channel", channel, self.num_channels)
        self._check_range("chip", chip, self.chips_per_channel)
        return chip * self.num_channels + channel

    def chip_coordinates(self, chip_index: int) -> tuple:
        """Inverse of :meth:`chip_index`: return ``(channel, chip)``."""
        self._check_range("chip_index", chip_index, self.num_chips)
        chip = chip_index // self.num_channels
        channel = chip_index % self.num_channels
        return channel, chip

    def chip_mask(self, chip_keys) -> int:
        """Bitmask with bit :meth:`chip_index` set for every ``(channel, chip)`` key.

        The conflict test of VAS/PAS is one AND of an I/O's chip mask with
        the controllers' busy masks (:attr:`FlashController.busy_bits`).
        """
        mask = 0
        for channel, chip in chip_keys:
            mask |= 1 << self.chip_index(channel, chip)
        return mask

    def iter_chip_keys(self):
        """Yield every ``(channel, chip)`` pair in RIOS traversal order."""
        for chip in range(self.chips_per_channel):
            for channel in range(self.num_channels):
                yield (channel, chip)

    # ------------------------------------------------------------------
    # Page address conversion
    # ------------------------------------------------------------------
    def ppn_to_address(self, ppn: int) -> PhysicalPageAddress:
        """Convert a flat physical page number into a structured address.

        The flat numbering stripes pages channel-first, then chip, then die,
        then plane, then walks blocks and pages.  This is the *static*
        layout; the page-mapped FTL is free to allocate pages anywhere, but
        the flat<->structured conversion must always round-trip.
        """
        self._check_range("ppn", ppn, self.total_pages)
        remaining, page = divmod(ppn, self.pages_per_block)
        remaining, block = divmod(remaining, self.blocks_per_plane)
        remaining, plane = divmod(remaining, self.planes_per_die)
        remaining, die = divmod(remaining, self.dies_per_chip)
        remaining, chip = divmod(remaining, self.chips_per_channel)
        channel = remaining
        return PhysicalPageAddress(
            channel=channel,
            chip=chip,
            die=die,
            plane=plane,
            block=block,
            page=page,
        )

    def address_to_ppn(self, address: PhysicalPageAddress) -> int:
        """Convert a structured physical address into a flat page number."""
        self._validate_address(address)
        ppn = address.channel
        ppn = ppn * self.chips_per_channel + address.chip
        ppn = ppn * self.dies_per_chip + address.die
        ppn = ppn * self.planes_per_die + address.plane
        ppn = ppn * self.blocks_per_plane + address.block
        ppn = ppn * self.pages_per_block + address.page
        return ppn

    def _validate_address(self, address: PhysicalPageAddress) -> None:
        self._check_range("channel", address.channel, self.num_channels)
        self._check_range("chip", address.chip, self.chips_per_channel)
        self._check_range("die", address.die, self.dies_per_chip)
        self._check_range("plane", address.plane, self.planes_per_die)
        self._check_range("block", address.block, self.blocks_per_plane)
        self._check_range("page", address.page, self.pages_per_block)

    @staticmethod
    def _check_range(name: str, value: int, upper: int) -> None:
        if not 0 <= value < upper:
            raise ValueError(f"{name}={value} out of range [0, {upper})")

    # ------------------------------------------------------------------
    # Logical page helpers
    # ------------------------------------------------------------------
    def bytes_to_pages(self, size_bytes: int) -> int:
        """Number of pages needed to hold ``size_bytes`` (at least one)."""
        if size_bytes <= 0:
            return 1
        return -(-size_bytes // self.page_size_bytes)

    def lba_to_lpn(self, offset_bytes: int) -> int:
        """Convert a byte offset into a logical page number."""
        if offset_bytes < 0:
            raise ValueError(f"offset_bytes must be non-negative, got {offset_bytes}")
        return offset_bytes // self.page_size_bytes

    def scaled(self, **overrides) -> "SSDGeometry":
        """Return a copy of this geometry with selected fields replaced."""
        values = {
            "num_channels": self.num_channels,
            "chips_per_channel": self.chips_per_channel,
            "dies_per_chip": self.dies_per_chip,
            "planes_per_die": self.planes_per_die,
            "blocks_per_plane": self.blocks_per_plane,
            "pages_per_block": self.pages_per_block,
            "page_size_bytes": self.page_size_bytes,
        }
        values.update(overrides)
        return SSDGeometry(**values)
