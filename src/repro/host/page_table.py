"""Host page table model.

Tracks, per virtual page, whether it currently maps to CXL device memory
or to a promoted frame in host DRAM (§III-C: "Upon the completion of a
page migration, the corresponding page table entry will be updated to
reflect the new memory address").  Also tracks which cachelines the host
dirtied while the page lived in host DRAM, so a demotion knows what must
be written back to the SSD.

Addresses are 4 KB-page granular; host frames are abstract indices (no
actual frame allocator is needed beyond a free counter, standing in for
the Linux buddy allocator the paper uses).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple


class Location:
    """Where a virtual page's data currently lives."""

    CXL = "cxl"
    HOST = "host"


@dataclass(slots=True)
class PageTableEntry:
    """One PTE (only the fields the migration mechanism touches)."""

    vpn: int
    location: str = Location.CXL
    host_frame: Optional[int] = None
    #: Bitmap of cachelines written while resident in host DRAM.
    dirty_mask: int = 0
    #: Last access time, for the LRU-like demotion choice ("finding a
    #: relatively cold page tracked by the active/inactive list").
    last_access_ns: float = 0.0
    #: Creation ordinal: breaks demotion-victim ties (oldest PTE first).
    seq: int = 0


_SEQ = attrgetter("seq")


class PageTable:
    """Virtual-page -> location map with promotion bookkeeping."""

    def __init__(self) -> None:
        self._entries: Dict[int, PageTableEntry] = {}
        self._next_frame = 0
        #: The promoted PTEs in creation (``seq``) order: the
        #: demotion-victim search scans these instead of every PTE.
        self._promoted: List[PageTableEntry] = []

    @property
    def promoted_count(self) -> int:
        return len(self._promoted)

    def entry(self, vpn: int) -> PageTableEntry:
        e = self._entries.get(vpn)
        if e is None:
            e = PageTableEntry(vpn=vpn, seq=len(self._entries))
            self._entries[vpn] = e
        return e

    def is_promoted(self, vpn: int) -> bool:
        e = self._entries.get(vpn)
        return e is not None and e.location == Location.HOST

    def promote(self, vpn: int, carried_dirty_mask: int = 0) -> PageTableEntry:
        """Point the PTE at a fresh host frame.

        ``carried_dirty_mask`` carries dirty-versus-flash state the SSD
        dropped when it invalidated its DRAM copies, so no dirtiness is
        lost across the move.
        """
        e = self.entry(vpn)
        if e.location == Location.HOST:
            raise ValueError(f"page {vpn} already promoted")
        e.location = Location.HOST
        e.host_frame = self._next_frame
        e.dirty_mask = carried_dirty_mask
        self._next_frame += 1
        self._promoted.insert(bisect_left(self._promoted, e.seq, key=_SEQ), e)
        return e

    def demote(self, vpn: int) -> Tuple[PageTableEntry, int]:
        """Point the PTE back at CXL memory; returns (entry, dirty_mask)
        so the caller can write dirty lines back to the SSD."""
        e = self._entries.get(vpn)
        if e is None or e.location != Location.HOST:
            raise ValueError(f"page {vpn} is not promoted")
        dirty = e.dirty_mask
        e.location = Location.CXL
        e.host_frame = None
        e.dirty_mask = 0
        del self._promoted[bisect_left(self._promoted, e.seq, key=_SEQ)]
        return e, dirty

    def record_host_access(self, vpn: int, line: int, is_write: bool, now: float) -> None:
        e = self._entries[vpn]
        e.last_access_ns = now
        if is_write:
            e.dirty_mask |= 1 << line

    def coldest_promoted(self) -> Optional[int]:
        """The promoted page with the oldest last access (demotion victim),
        the oldest PTE among equally old ones.

        Host hits store ``last_access_ns`` in place, so there is no order
        to maintain between calls; the scan is over promoted pages only,
        in creation order, and ``list.index`` keeps the first minimum.
        """
        promoted = self._promoted
        if not promoted:
            return None
        times = [e.last_access_ns for e in promoted]
        return promoted[times.index(min(times))].vpn
