"""Promotion Look-aside Buffer (PLB).

The PLB sits in the host root complex and tracks in-flight page
promotions so accesses stay consistent mid-migration (§III-C, following
FlatFlash): 64 entries, each recording source/destination page addresses
(8 B each), a 64-bit migrated-cacheline bitmap (8 B) and a valid bit --
24 B per entry.  Reads to a page under promotion are served from the SSD
DRAM; writes go to the host copy iff the line's migrated bit is set.
The simulator copies a page as one transfer, so an entry's bitmap goes
from empty to full when the promotion completes and routes no access.

§IV's two-level PLB for 2 MB huge pages is not modelled: no simulation
promotes huge pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

PLB_ENTRIES = 64
PLB_ENTRY_BYTES = 24  # 8 B src + 8 B dst + 8 B bitmap (+ valid bit)


@dataclass
class PLBEntry:
    """One in-flight 4 KB promotion."""

    src_page: int  # SSD (CXL-space) page address
    dst_frame: int  # host DRAM frame
    migrated_mask: int = 0  # bit i set => cacheline i already copied
    valid: bool = True


class PromotionLookasideBuffer:
    """Fixed-capacity table of in-flight promotions."""

    def __init__(self, entries: int = PLB_ENTRIES) -> None:
        self.capacity = entries
        self._by_src: Dict[int, PLBEntry] = {}

    def __len__(self) -> int:
        return len(self._by_src)

    @property
    def full(self) -> bool:
        return len(self._by_src) >= self.capacity

    def begin(self, src_page: int, dst_frame: int) -> Optional[PLBEntry]:
        """Allocate an entry for a new promotion, or None if the PLB is
        full (the migration must wait -- hardware resource limit)."""
        if self.full or src_page in self._by_src:
            return None
        entry = PLBEntry(src_page=src_page, dst_frame=dst_frame)
        self._by_src[src_page] = entry
        return entry

    def lookup(self, src_page: int) -> Optional[PLBEntry]:
        return self._by_src.get(src_page)

    def is_migrating(self, src_page: int) -> bool:
        return src_page in self._by_src

    def complete(self, src_page: int) -> PLBEntry:
        """Retire the entry once the OS acknowledges the migration."""
        entry = self._by_src.pop(src_page, None)
        if entry is None:
            raise KeyError(f"page {src_page} is not under promotion")
        entry.valid = False
        return entry

    @property
    def memory_bytes(self) -> int:
        return self.capacity * PLB_ENTRY_BYTES
