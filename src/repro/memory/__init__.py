"""DRAM and OS memory-system simulation.

This package models everything between the weight file and the DRAM cells:
physical address geometry, the DRAM array with vulnerable cells, the OS page
cache, the per-CPU page-frame cache (FILO) the online attack exploits, an
mmap/munmap model implementing the bait-page placement of Listing 1, and the
SPOILER / row-buffer-conflict timing side channels of Appendix B/C.
"""

from repro.memory.geometry import DRAMAddress, DRAMGeometry
from repro.memory.dram import CellMap, DRAMArray
from repro.memory.frame_cache import PageFrameCache
from repro.memory.page_cache import PageCache
from repro.memory.mmap import MappedFile, OSMemoryModel
from repro.memory.sidechannel import RowConflictChannel, SpoilerChannel

__all__ = [
    "DRAMGeometry",
    "DRAMAddress",
    "DRAMArray",
    "CellMap",
    "PageFrameCache",
    "PageCache",
    "OSMemoryModel",
    "MappedFile",
    "SpoilerChannel",
    "RowConflictChannel",
]
