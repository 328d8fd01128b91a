"""SkyByte's page-granular read-write data cache (§III-B).

Reuses the set-associative structure of the baseline cache but with
SkyByte's fill/writeback policy:

* pages are filled only by *read* misses (writes never allocate -- they go
  to the write log), exploiting spatial locality where it exists;
* on fill, any newer cachelines sitting in the write log are merged into
  the fetched page (read path R3);
* writes update a resident copy in parallel with the log append (W2), so
  resident pages are always up to date and a data-cache hit can be served
  with the cheaper 49 ns index lookup;
* evictions never write back to flash: the write log is the authority for
  dirty data, so dropping a page is free.  This is a key source of the
  flash-traffic reduction of Fig. 18.
"""

from __future__ import annotations

from typing import Optional

from repro.ssd.base_cache import CacheEntry, SetAssociativePageCache
from repro.sim.stats import SimStats


class SkyByteDataCache:
    """Read-write page cache backing the CXL-aware DRAM manager."""

    def __init__(self, capacity_pages: int, ways: int, stats: SimStats) -> None:
        self._cache = SetAssociativePageCache(capacity_pages, ways)
        self._stats = stats

    @property
    def capacity_pages(self) -> int:
        return self._cache.capacity_pages

    def __contains__(self, lpa: int) -> bool:
        return lpa in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    def lookup(self, lpa: int, line: int) -> Optional[CacheEntry]:
        """Read-path lookup; marks the line touched on hit."""
        entry = self._cache.lookup(lpa, line)
        if entry is not None and self._stats.enabled:
            self._stats.cache_hits += 1
        return entry

    def update_on_write(self, lpa: int, line: int) -> bool:
        """W2: parallel update of a resident copy.  Never allocates.

        Returns True if the page was resident.  The line is recorded in
        ``dirty_mask`` (it is newer than the flash copy) and counts as a
        touch.
        """
        entry = self._cache.peek(lpa)
        if entry is None:
            return False
        entry.touch_mask |= 1 << line
        entry.dirty_mask |= 1 << line
        return True

    def fill(
        self, lpa: int, touch_line: Optional[int], merged_lines: int
    ) -> Optional[CacheEntry]:
        """R3: install a page fetched from flash.

        ``merged_lines`` is the bitmask of cachelines patched in from the
        write log so the resident copy is up to date.  Returns the evicted
        entry, if any (never written back -- see module docstring).
        """
        victim = self._cache.insert(lpa, touch_line, merged_lines)
        if victim is not None and self._stats.enabled:
            self._stats.cache_evictions += 1
            self._stats.read_locality.record(victim.lines_touched)
        return victim

    def peek(self, lpa: int) -> Optional[CacheEntry]:
        return self._cache.peek(lpa)

    def invalidate(self, lpa: int) -> Optional[CacheEntry]:
        """Drop a page (after promotion to host DRAM or compaction flush)."""
        return self._cache.evict(lpa)

    def entries(self):
        return self._cache.entries()


class QuotaDataCache:
    """Per-tenant data-cache quotas ("cache-quota" isolation).

    The shared page cache is carved into per-tenant set-associative
    shares sized proportionally to tenant weights, so a scan-heavy
    tenant evicts only inside its own quota instead of flushing its
    neighbours' working sets.  Same interface as
    :class:`SkyByteDataCache`; pages outside every partition use
    share 0.
    """

    def __init__(self, capacity_pages: int, ways: int, stats: SimStats,
                 tenant_map) -> None:
        from repro.qos import partition_capacities

        self._map = tenant_map
        shares = partition_capacities(
            capacity_pages, tenant_map.weights, minimum=1
        )
        self.shards = [
            SkyByteDataCache(share, ways, stats) for share in shares
        ]

    def _shard(self, lpa: int) -> SkyByteDataCache:
        tenant = self._map.tenant_of_page(lpa)
        return self.shards[tenant if tenant is not None else 0]

    @property
    def capacity_pages(self) -> int:
        return sum(s.capacity_pages for s in self.shards)

    def __contains__(self, lpa: int) -> bool:
        return lpa in self._shard(lpa)

    def __len__(self) -> int:
        return sum(len(s) for s in self.shards)

    def lookup(self, lpa: int, line: int) -> Optional[CacheEntry]:
        return self._shard(lpa).lookup(lpa, line)

    def update_on_write(self, lpa: int, line: int) -> bool:
        return self._shard(lpa).update_on_write(lpa, line)

    def fill(
        self, lpa: int, touch_line: Optional[int], merged_lines: int
    ) -> Optional[CacheEntry]:
        return self._shard(lpa).fill(lpa, touch_line, merged_lines)

    def peek(self, lpa: int) -> Optional[CacheEntry]:
        return self._shard(lpa).peek(lpa)

    def invalidate(self, lpa: int) -> Optional[CacheEntry]:
        return self._shard(lpa).invalidate(lpa)

    def entries(self):
        for shard in self.shards:
            yield from shard.entries()
