"""Set-associative, page-granular SSD DRAM cache.

This is the conventional SSD-internal DRAM cache organisation the paper's
Base-CSSD uses (§II-B): pages cached whole, LRU replacement within a set,
write-allocate with whole-page writeback.  SkyByte's read-write data cache
(:mod:`repro.core.data_cache`) reuses this structure with different fill
and writeback policies.

Each resident page tracks two 64-bit masks: which cachelines the host
touched while the page was resident (feeding the read-locality CDF of
Fig. 5) and which are dirty (feeding Fig. 6 and deciding writebacks).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.config import CACHELINES_PER_PAGE

FULL_MASK = (1 << CACHELINES_PER_PAGE) - 1


@dataclass(slots=True)
class CacheEntry:
    """Metadata for one resident page."""

    lpa: int
    touch_mask: int = 0
    dirty_mask: int = 0
    #: When the page first became dirty (for periodic persistence flushes).
    dirty_since_ns: float = -1.0

    @property
    def dirty(self) -> bool:
        return self.dirty_mask != 0

    @property
    def lines_touched(self) -> int:
        return self.touch_mask.bit_count()

    @property
    def lines_dirty(self) -> int:
        return self.dirty_mask.bit_count()


class SetAssociativePageCache:
    """LRU set-associative cache of 4 KB pages, keyed by LPA."""

    def __init__(self, capacity_pages: int, ways: int) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        ways = max(1, min(ways, capacity_pages))
        self.ways = ways
        self.num_sets = max(1, capacity_pages // ways)
        self.capacity_pages = self.num_sets * ways
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self._size = 0

    def _set_of(self, lpa: int) -> OrderedDict:
        return self._sets[lpa % self.num_sets]

    def __contains__(self, lpa: int) -> bool:
        return lpa in self._set_of(lpa)

    def __len__(self) -> int:
        return self._size

    def lookup(self, lpa: int, touch_line: Optional[int] = None) -> Optional[CacheEntry]:
        """Return the entry for ``lpa`` (refreshing LRU) or None.

        If ``touch_line`` is given, that cacheline is marked accessed.
        """
        cache_set = self._sets[lpa % self.num_sets]
        entry = cache_set.get(lpa)
        if entry is None:
            return None
        cache_set.move_to_end(lpa)
        if touch_line is not None:
            entry.touch_mask |= 1 << touch_line
        return entry

    def peek(self, lpa: int) -> Optional[CacheEntry]:
        """Lookup without LRU refresh or touch update."""
        return self._sets[lpa % self.num_sets].get(lpa)

    def insert(
        self, lpa: int, touch_line: Optional[int] = None, dirty_mask: int = 0
    ) -> Optional[CacheEntry]:
        """Insert ``lpa`` as most-recently-used.

        Returns the evicted :class:`CacheEntry` if the set was full, else
        None.  Inserting an already-resident page refreshes it in place.
        ``dirty_mask`` is OR-ed into the resident entry's dirty lines.
        """
        cache_set = self._sets[lpa % self.num_sets]
        existing = cache_set.get(lpa)
        if existing is not None:
            cache_set.move_to_end(lpa)
            if touch_line is not None:
                existing.touch_mask |= 1 << touch_line
            existing.dirty_mask |= dirty_mask
            return None
        victim = None
        if len(cache_set) >= self.ways:
            _lpa, victim = cache_set.popitem(last=False)
            self._size -= 1
        entry = CacheEntry(lpa=lpa, dirty_mask=dirty_mask)
        if touch_line is not None:
            entry.touch_mask |= 1 << touch_line
        cache_set[lpa] = entry
        self._size += 1
        return victim

    def mark_dirty(self, lpa: int, line: int) -> bool:
        """Mark one cacheline dirty; returns False if ``lpa`` not resident."""
        entry = self.lookup(lpa, touch_line=line)
        if entry is None:
            return False
        entry.dirty_mask |= 1 << line
        return True

    def evict(self, lpa: int) -> Optional[CacheEntry]:
        """Remove ``lpa`` from the cache, returning its entry."""
        cache_set = self._set_of(lpa)
        entry = cache_set.pop(lpa, None)
        if entry is not None:
            self._size -= 1
        return entry

    def entries(self) -> Iterator[CacheEntry]:
        """Iterate over all resident entries (LRU to MRU within a set)."""
        for cache_set in self._sets:
            yield from cache_set.values()

    def dirty_entries(self) -> List[CacheEntry]:
        return [e for e in self.entries() if e.dirty]
