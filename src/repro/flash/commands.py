"""Flash operations, transaction kinds and flash-level parallelism classes.

The paper distinguishes four degrees of flash-level parallelism (FLP) for a
transaction (Section 5.6, Figure 14):

* ``NON_PAL`` - the transaction carries a single memory request; only
  system-level parallelism (channel striping/pipelining) applies.
* ``PAL1``    - plane sharing: multiple planes of one die are activated by a
  single multiplane operation.
* ``PAL2``    - die interleaving: requests to different dies of the chip are
  interlaced on the shared chip interface.
* ``PAL3``    - die interleaving combined with plane sharing; the highest
  degree of FLP a single chip can provide.
"""

from __future__ import annotations

import enum


class FlashOp(enum.Enum):
    """Primitive NAND operations handled by the flash controller."""

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"


class TransactionKind(enum.Enum):
    """Kind of flash transaction the controller builds for a chip."""

    LEGACY = "legacy"                    # single die, single plane
    MULTIPLANE = "multiplane"            # single die, multiple planes
    INTERLEAVE = "interleave"            # multiple dies, one plane each
    INTERLEAVE_MULTIPLANE = "interleave_multiplane"  # multiple dies, multiple planes
    ERASE = "erase"                      # block erase (GC housekeeping)


class ParallelismClass(enum.Enum):
    """FLP class of a transaction as reported in Figure 14 of the paper."""

    NON_PAL = 0
    PAL1 = 1
    PAL2 = 2
    PAL3 = 3

    # Enum's own __hash__ is a Python-level hash(self._name_), paid on every
    # FLP-keyed dict access (one build and one record per transaction).
    # Members are singletons compared by identity, so the C-level identity
    # hash is equivalent.
    __hash__ = object.__hash__

    @property
    def label(self) -> str:
        """Human readable label matching the paper's figure legends."""
        return {
            ParallelismClass.NON_PAL: "NON-PAL",
            ParallelismClass.PAL1: "PAL1",
            ParallelismClass.PAL2: "PAL2",
            ParallelismClass.PAL3: "PAL3",
        }[self]


def classify_parallelism(num_dies: int, max_planes_per_die: int) -> ParallelismClass:
    """Classify the FLP of a transaction from its die/plane footprint.

    ``num_dies`` is the number of distinct dies the transaction touches and
    ``max_planes_per_die`` the largest number of distinct planes used inside
    any single one of those dies.
    """
    if num_dies <= 0:
        raise ValueError("a transaction must touch at least one die")
    if max_planes_per_die <= 0:
        raise ValueError("a transaction must touch at least one plane")
    if num_dies == 1 and max_planes_per_die == 1:
        return ParallelismClass.NON_PAL
    if num_dies == 1:
        return ParallelismClass.PAL1
    if max_planes_per_die == 1:
        return ParallelismClass.PAL2
    return ParallelismClass.PAL3


_KIND_FOR_PARALLELISM = {
    ParallelismClass.NON_PAL: TransactionKind.LEGACY,
    ParallelismClass.PAL1: TransactionKind.MULTIPLANE,
    ParallelismClass.PAL2: TransactionKind.INTERLEAVE,
    ParallelismClass.PAL3: TransactionKind.INTERLEAVE_MULTIPLANE,
}


def kind_for_parallelism(parallelism: ParallelismClass) -> TransactionKind:
    """Map an FLP class onto the transaction kind that realises it."""
    return _KIND_FOR_PARALLELISM[parallelism]
