"""Flash Translation Layer substrate.

The FTL runs on the SSD's embedded core (paper Section 2.1): it translates
host logical page numbers into physical flash addresses, allocates pages for
writes, keeps valid/invalid bookkeeping, reclaims space through garbage
collection, accounts wear, and - specific to Sprinkler - hands every batch
of garbage-collection page moves to the *readdressing callback*, which
re-aims committed memory requests at the moved pages.
"""

from repro.ftl.allocation import PageAllocator
from repro.ftl.mapping import PageMapFTL
from repro.ftl.garbage_collector import GarbageCollector, GCJob, GCStats
from repro.ftl.wear_leveling import WearStats, wear_stats
from repro.ftl.callbacks import ReaddressingCallback

__all__ = [
    "PageAllocator",
    "PageMapFTL",
    "GarbageCollector",
    "GCJob",
    "GCStats",
    "WearStats",
    "wear_stats",
    "ReaddressingCallback",
]
