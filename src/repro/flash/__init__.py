"""Flash-level substrate: geometry, timing, chips, channels, controllers.

This subpackage models everything below the FTL: the physical organisation of
a many-chip SSD (channels, chips, dies, planes, blocks, pages), the NAND
timing behaviour (ONFI-style bus transfers, asymmetric and page-dependent
program latencies), and the flash controller that coalesces committed memory
requests into flash transactions exploiting die interleaving and plane
sharing.
"""

from repro.flash.geometry import PhysicalPageAddress, SSDGeometry
from repro.flash.timing import FlashTiming
from repro.flash.commands import FlashOp, ParallelismClass, TransactionKind
from repro.flash.transaction import FlashTransaction, TransactionBuilder
from repro.flash.chip import FlashChip
from repro.flash.plane import Plane
from repro.flash.channel import Channel
from repro.flash.controller import FlashController

__all__ = [
    "PhysicalPageAddress",
    "SSDGeometry",
    "FlashTiming",
    "FlashOp",
    "ParallelismClass",
    "TransactionKind",
    "FlashTransaction",
    "TransactionBuilder",
    "FlashChip",
    "Plane",
    "Channel",
    "FlashController",
]
