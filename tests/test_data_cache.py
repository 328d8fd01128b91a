"""Tests for SkyByte's read-write data cache and the generic page cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.data_cache import SkyByteDataCache
from repro.sim.stats import SimStats
from repro.ssd.base_cache import FULL_MASK, SetAssociativePageCache


class TestSetAssociativePageCache:
    def test_insert_and_lookup(self):
        c = SetAssociativePageCache(8, ways=2)
        c.insert(1)
        assert 1 in c
        assert c.lookup(1) is not None
        assert len(c) == 1

    def test_lru_eviction_within_set(self):
        c = SetAssociativePageCache(4, ways=4)  # single set
        for page in range(4):
            c.insert(page)
        c.lookup(0)  # refresh page 0
        victim = c.insert(100)
        assert victim.lpa == 1  # page 1 was LRU

    def test_conflict_misses_between_sets(self):
        c = SetAssociativePageCache(8, ways=2)  # 4 sets
        # Pages 0, 4, 8 all map to set 0 (page % 4).
        c.insert(0)
        c.insert(4)
        victim = c.insert(8)
        assert victim is not None
        assert victim.lpa == 0

    def test_touch_and_dirty_masks(self):
        c = SetAssociativePageCache(4, ways=4)
        c.insert(1, touch_line=3)
        c.insert(1, touch_line=7, dirty_mask=1 << 7)
        entry = c.peek(1)
        assert entry.touch_mask & (1 << 3)
        assert entry.touch_mask & (1 << 7)
        assert entry.dirty_mask == 1 << 7
        assert entry.lines_touched == 2
        assert entry.lines_dirty == 1

    def test_peek_does_not_refresh_lru(self):
        c = SetAssociativePageCache(2, ways=2)
        c.insert(0)
        c.insert(2)
        c.peek(0)  # must NOT refresh
        victim = c.insert(4)
        assert victim.lpa == 0

    def test_evict_specific_page(self):
        c = SetAssociativePageCache(4, ways=4)
        c.insert(1)
        entry = c.evict(1)
        assert entry.lpa == 1
        assert 1 not in c
        assert c.evict(1) is None

    def test_dirty_entries_listing(self):
        c = SetAssociativePageCache(8, ways=2)
        c.insert(1)
        c.insert(2)
        c.insert(2, touch_line=0, dirty_mask=1 << 0)
        dirty = c.dirty_entries()
        assert [e.lpa for e in dirty] == [2]

    def test_reinsert_refreshes_in_place(self):
        c = SetAssociativePageCache(2, ways=2)
        c.insert(0)
        c.insert(2)
        assert c.insert(0) is None  # already resident
        victim = c.insert(4)
        assert victim.lpa == 2

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=100))
    def test_occupancy_never_exceeds_capacity(self, pages):
        c = SetAssociativePageCache(8, ways=2)
        for page in pages:
            c.insert(page)
        assert len(c) <= c.capacity_pages


class TestSkyByteDataCache:
    def make(self, pages=4, ways=4):
        return SkyByteDataCache(pages, ways, SimStats())

    def test_writes_never_allocate(self):
        """W2 updates a resident copy only -- writes go to the log."""
        c = self.make()
        assert c.update_on_write(5, 0) is False
        assert 5 not in c

    def test_write_updates_resident_copy(self):
        c = self.make()
        c.fill(5, touch_line=0, merged_lines=0)
        assert c.update_on_write(5, 3) is True
        entry = c.peek(5)
        assert entry.dirty_mask & (1 << 3)

    def test_fill_merges_log_lines(self):
        """R3: logged lines are patched into the fetched page."""
        c = self.make()
        merged = (1 << 2) | (1 << 9)
        c.fill(7, touch_line=0, merged_lines=merged)
        assert c.peek(7).dirty_mask == merged

    def test_eviction_never_writes_back(self):
        """Dropping a dirty page is free: the log is the authority."""
        stats = SimStats()
        c = SkyByteDataCache(1, 1, stats)
        c.fill(0, touch_line=0, merged_lines=FULL_MASK)
        victim = c.fill(1, touch_line=0, merged_lines=0)
        assert victim is not None
        assert victim.lpa == 0
        # Only an eviction stat, no flash write anywhere.
        assert stats.cache_evictions == 1
        assert stats.flash_page_writes == 0

    def test_eviction_records_read_locality(self):
        stats = SimStats()
        c = SkyByteDataCache(1, 1, stats)
        c.fill(0, touch_line=0, merged_lines=0)
        c.lookup(0, 1)
        c.lookup(0, 2)
        c.fill(1, touch_line=0, merged_lines=0)
        assert stats.read_locality.count == 1
        # 3 lines touched on the evicted page.
        assert stats.read_locality.cdf()[0][0] == pytest.approx(3 / 64)

    def test_lookup_counts_hits(self):
        stats = SimStats()
        c = SkyByteDataCache(4, 4, stats)
        c.fill(1, touch_line=0, merged_lines=0)
        c.lookup(1, 5)
        assert stats.cache_hits == 1

    def test_invalidate(self):
        c = self.make()
        c.fill(3, touch_line=0, merged_lines=0)
        entry = c.invalidate(3)
        assert entry.lpa == 3
        assert 3 not in c
