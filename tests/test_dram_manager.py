"""Tests for the CXL-aware SSD DRAM manager (R1/R2/R3, W1/W2/W3) and
log compaction.  Reads go through the controller's one entry,
``access_line``, which serves R1/R2/R3 from the manager's structures."""

from types import SimpleNamespace

import pytest

from repro.config import FLASH_TIMINGS, FlashGeometry, SimConfig, SSDConfig
from repro.core.controller import SkyByteController
from repro.sim.engine import Engine
from repro.sim.stats import SSD_READ_MISS, SimStats

ULL = FLASH_TIMINGS["ULL"]


def build(log_entries=16, cache_pages=4):
    geometry = FlashGeometry(
        channels=2, chips_per_channel=1, dies_per_chip=2, planes_per_die=1,
        blocks_per_plane=16, pages_per_block=8,
    )
    config = SSDConfig(
        geometry=geometry,
        dram_bytes=cache_pages * 4096 + log_entries * 64,
        write_log_bytes=log_entries * 64,
        cache_ways=cache_pages,
    )
    engine = Engine()
    stats = SimStats()
    ctrl = SkyByteController(SimConfig(ssd=config, seed=0), engine, stats)
    ctrl.ftl.precondition(32)
    return config, engine, stats, ctrl.ftl, ctrl.flash, ctrl.dram, ctrl


def read(ctrl, lpa, line, now):
    """A read of ``lpa`` through the controller, as the path it took: R1
    and R2 hits differ in their index latency."""
    result = ctrl.access_line(lpa, line, False, now)
    indexing = result.breakdown["indexing"]
    if result.request_class == SSD_READ_MISS:
        path = "R3"
    elif indexing == ctrl.dram._r1[1]:
        path = "R1"
    else:
        path = "R2"
    return SimpleNamespace(path=path, hit=path != "R3", indexing_ns=indexing,
                           flash_ns=result.breakdown.get("flash", 0.0))


class TestReadPaths:
    def test_r3_miss_fetches_from_flash(self):
        config, engine, stats, ftl, flash, dram, ctrl = build()
        outcome = read(ctrl, 0, 0, 0.0)
        assert outcome.path == "R3"
        assert not outcome.hit
        assert outcome.flash_ns >= ULL.read_ns
        assert 0 in dram.data_cache

    def test_r1_cache_hit_after_fill(self):
        config, engine, stats, ftl, flash, dram, ctrl = build()
        read(ctrl, 0, 0, 0.0)
        # After the fetch has landed (before it, the controller's MSHR
        # coalesces the read onto the fetch).
        outcome = read(ctrl, 0, 1, 100_000.0)
        assert outcome.path == "R1"
        assert outcome.hit
        assert outcome.indexing_ns == config.cache_index_ns

    def test_r2_log_hit_without_cache(self):
        config, engine, stats, ftl, flash, dram, ctrl = build()
        dram.write(5, 7, 0.0)
        outcome = read(ctrl, 5, 7, 100.0)
        assert outcome.path == "R2"
        assert outcome.hit
        assert outcome.indexing_ns == config.log_index_ns

    def test_r3_merges_logged_lines_into_fill(self):
        config, engine, stats, ftl, flash, dram, ctrl = build()
        dram.write(5, 7, 0.0)
        # Read a DIFFERENT line of page 5: R3 fetch, must merge line 7.
        outcome = read(ctrl, 5, 3, 100.0)
        assert outcome.path == "R3"
        entry = dram.data_cache.peek(5)
        assert entry.dirty_mask & (1 << 7)

    def test_r3_indexing_pays_slower_lookup(self):
        """Both lookups were needed to detect the miss (parallel, pay max)."""
        config, engine, stats, ftl, flash, dram, ctrl = build()
        outcome = read(ctrl, 0, 0, 0.0)
        assert outcome.indexing_ns == max(
            config.cache_index_ns, config.log_index_ns
        )

    def test_unmapped_page_zero_fill_no_flash(self):
        config, engine, stats, ftl, flash, dram, ctrl = build()
        outcome = read(ctrl, 1000, 0, 0.0)  # never preconditioned/written
        assert outcome.flash_ns == 0.0
        assert stats.flash_page_reads == 0


class TestWritePaths:
    def test_write_is_fast_and_logged(self):
        config, engine, stats, ftl, flash, dram, ctrl = build()
        outcome = dram.write(3, 4, 0.0)
        assert outcome.ready_ns == pytest.approx(config.log_index_ns)
        assert outcome.stalled_ns == 0.0
        assert dram.write_log.has_line(3, 4)
        assert stats.log_appends == 1
        # No flash program on the critical path.
        assert stats.flash_page_writes == 0

    def test_w2_updates_resident_copy(self):
        config, engine, stats, ftl, flash, dram, ctrl = build()
        read(ctrl, 3, 0, 0.0)
        dram.write(3, 9, 100.0)
        assert dram.data_cache.peek(3).dirty_mask & (1 << 9)

    def test_high_water_triggers_compaction(self):
        config, engine, stats, ftl, flash, dram, ctrl = build(log_entries=16)
        # Active buffer capacity 8; high water at 6.
        for i in range(6):
            dram.write(i, 0, float(i))
        assert stats.log_compactions == 1
        # Writes continue into the fresh buffer.
        dram.write(100, 0, 50.0)
        assert dram.write_log.has_line(100, 0)

    def test_compaction_flushes_pages(self):
        config, engine, stats, ftl, flash, dram, ctrl = build(log_entries=16)
        for i in range(6):
            dram.write(i, 0, float(i))
        assert stats.compaction_pages_flushed == 6
        assert stats.flash_page_writes == 6

    def test_write_coalescing_single_flush(self):
        """Repeated writes to one line compact into one page program."""
        config, engine, stats, ftl, flash, dram, ctrl = build(log_entries=16)
        for _ in range(6):
            dram.write(7, 7, 0.0)
        assert stats.log_compactions == 1
        assert stats.compaction_pages_flushed == 1
        assert stats.flash_page_writes == 1

    def test_compaction_uses_cached_copy_without_merge_read(self):
        """L2: a resident page is flushed directly (no coalescing-buffer
        read from flash)."""
        config, engine, stats, ftl, flash, dram, ctrl = build(log_entries=16)
        read(ctrl, 2, 0, 0.0)  # page 2 resident
        reads_before = stats.flash_page_reads
        for i in range(6):
            dram.write(2, i, 10.0)
        assert stats.flash_page_reads == reads_before  # no L3 read

    def test_compaction_reads_uncached_page_for_merge(self):
        config, engine, stats, ftl, flash, dram, ctrl = build(log_entries=16)
        reads_before = stats.flash_page_reads
        for i in range(6):
            dram.write(i, 0, 0.0)  # six distinct, uncached pages
        assert stats.flash_page_reads > reads_before  # L3 merges

    def test_write_locality_recorded_at_compaction(self):
        config, engine, stats, ftl, flash, dram, ctrl = build(log_entries=16)
        for i in range(6):
            dram.write(0, i, 0.0)  # six dirty lines of one page
        assert stats.write_locality.count == 1
        assert stats.write_locality.cdf()[0][0] == pytest.approx(6 / 64)


class TestMaintenance:
    def test_flush_all_drains_both_buffers(self):
        config, engine, stats, ftl, flash, dram, ctrl = build(log_entries=16)
        dram.write(1, 0, 0.0)
        dram.write(2, 0, 0.0)
        dram.flush_all(10.0)
        engine.run()
        assert sum(b.used for b in dram.write_log.buffers) == 0
        assert stats.flash_page_writes >= 2

    def test_invalidate_page_clears_both_structures(self):
        config, engine, stats, ftl, flash, dram, ctrl = build()
        read(ctrl, 4, 0, 0.0)
        dram.write(4, 1, 10.0)
        dram.invalidate_page(4)
        assert 4 not in dram.data_cache
        assert not dram.write_log.has_page(4)
        assert not dram.contains_page(4)
