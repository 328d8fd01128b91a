"""Tests for the Base-CSSD and SkyByte controllers (device behaviour)."""

from repro.config import scaled_config
from repro.core.controller import SkyByteController
from repro.cxl.protocol import M2SOpcode, MemRequest
from repro.sim.engine import Engine
from repro.sim.stats import SimStats, SSD_READ_HIT, SSD_READ_MISS, SSD_WRITE
from repro.ssd.base_controller import BaseCSSDController


def read_req(page, line=0, core=0):
    return MemRequest(opcode=M2SOpcode.MEM_RD, address=page * 4096 + line * 64,
                      core=core)


def write_req(page, line=0, core=0):
    return MemRequest(opcode=M2SOpcode.MEM_WR, address=page * 4096 + line * 64,
                      core=core)


def build_base(ctx=False):
    config = scaled_config(scale=512)
    engine = Engine()
    stats = SimStats()
    ctrl = BaseCSSDController(config, engine, stats, ctx_switch_enabled=ctx)
    ctrl.ftl.precondition(512)
    return ctrl, engine, stats, config


def build_skybyte(ctx=True):
    config = scaled_config(scale=512)
    engine = Engine()
    stats = SimStats()
    ctrl = SkyByteController(config, engine, stats, ctx_switch_enabled=ctx)
    ctrl.ftl.precondition(512)
    return ctrl, engine, stats, config


class TestBaseCSSD:
    def test_read_miss_then_hit(self):
        ctrl, engine, stats, config = build_base()
        miss = ctrl.access(read_req(0), 0.0)
        assert miss.request_class == SSD_READ_MISS
        assert miss.complete_ns >= config.ssd.timing.read_ns
        engine.run()
        hit = ctrl.access(read_req(0, line=1), engine.now)
        assert hit.request_class == SSD_READ_HIT
        assert hit.complete_ns - engine.now < 1000

    def test_write_allocate_fetches_page(self):
        """The granularity-mismatch penalty: a cacheline write to a
        non-resident page costs a whole-page flash read."""
        ctrl, engine, stats, config = build_base()
        reads_before = stats.flash_page_reads
        result = ctrl.access(write_req(3), 0.0)
        assert result.request_class == SSD_WRITE
        assert stats.flash_page_reads == reads_before + 1
        assert result.complete_ns >= config.ssd.timing.read_ns

    def test_dirty_eviction_writes_whole_page(self):
        ctrl, engine, stats, config = build_base()
        ctrl.access(write_req(0), 0.0)
        engine.run()
        # Conflict-evict page 0 by filling its set.
        sets = ctrl.cache.num_sets
        ways = ctrl.cache.ways
        writes_before = stats.flash_page_writes
        for k in range(1, ways + 2):
            ctrl.access(read_req(k * sets), engine.now)
            engine.run()
        assert stats.flash_page_writes > writes_before

    def test_mshr_coalescing_no_duplicate_fetch(self):
        ctrl, engine, stats, config = build_base()
        ctrl.access(read_req(0, line=0, core=0), 0.0)
        reads_after_first = stats.flash_page_reads
        second = ctrl.access(read_req(0, line=1, core=1), 10.0)
        assert stats.flash_page_reads == reads_after_first
        assert second.request_class == SSD_READ_MISS  # still pays the wait

    def test_prefetch_next_page(self):
        ctrl, engine, stats, config = build_base()
        ctrl.access(read_req(10), 0.0)
        assert stats.prefetch_issued >= 1
        assert ctrl.contains_page(11)

    def test_periodic_persistence_flushes_old_dirty(self):
        ctrl, engine, stats, config = build_base()
        ctrl.access(write_req(0), 0.0)
        engine.run()
        writes_before = stats.flash_page_writes
        # Advance past the persistence interval via a later access.
        later = config.ssd.dirty_flush_interval_ns * 2
        ctrl.access(read_req(1), later)
        assert stats.flash_page_writes > writes_before

    def test_invalidate_returns_dirty_mask(self):
        ctrl, engine, stats, config = build_base()
        ctrl.access(write_req(2, line=5), 0.0)
        engine.run()
        mask = ctrl.invalidate_page(2)
        assert mask & (1 << 5)
        assert not ctrl.contains_page(2)

    def test_demote_page_reinstates_dirty(self):
        ctrl, engine, stats, config = build_base()
        ctrl.demote_page(9, dirty_mask=0b11, now=0.0)
        entry = ctrl.cache.peek(9)
        assert entry.dirty_mask == 0b11

    def test_drain_flushes_all_dirty(self):
        ctrl, engine, stats, config = build_base()
        ctrl.access(write_req(1), 0.0)
        engine.run()
        ctrl.drain(engine.now)
        assert not ctrl.cache.dirty_entries()

    def test_delay_hint_when_ctx_enabled(self):
        ctrl, engine, stats, config = build_base(ctx=True)
        result = ctrl.access(read_req(0), 0.0)
        assert result.delay_hint  # 3us read > 2us threshold

    def test_no_hint_when_ctx_disabled(self):
        ctrl, engine, stats, config = build_base(ctx=False)
        result = ctrl.access(read_req(0), 0.0)
        assert not result.delay_hint


class TestSkyByte:
    def test_write_never_hints_and_never_reads_flash(self):
        """§III-A: writes are buffered in the log, no switch needed."""
        ctrl, engine, stats, config = build_skybyte()
        reads_before = stats.flash_page_reads
        result = ctrl.access(write_req(3), 0.0)
        assert result.request_class == SSD_WRITE
        assert not result.delay_hint
        assert stats.flash_page_reads == reads_before
        assert result.complete_ns - 0.0 < 500  # log append speed

    def test_read_hit_from_log(self):
        ctrl, engine, stats, config = build_skybyte()
        ctrl.access(write_req(3, line=7), 0.0)
        result = ctrl.access(read_req(3, line=7), 100.0)
        assert result.request_class == SSD_READ_HIT
        assert not result.delay_hint

    def test_read_miss_hints(self):
        ctrl, engine, stats, config = build_skybyte()
        result = ctrl.access(read_req(0), 0.0)
        assert result.request_class == SSD_READ_MISS
        assert result.delay_hint

    def test_replay_after_fetch_is_hit(self):
        """Step C4: the replayed instruction hits in SSD DRAM."""
        ctrl, engine, stats, config = build_skybyte()
        ctrl.access(read_req(0), 0.0)
        engine.run()
        replay = ctrl.access(read_req(0), engine.now)
        assert replay.request_class == SSD_READ_HIT

    def test_mshr_coalesced_read_no_new_fetch(self):
        ctrl, engine, stats, config = build_skybyte()
        ctrl.access(read_req(0, core=0), 0.0)
        before = stats.flash_page_reads
        second = ctrl.access(read_req(0, line=2, core=1), 1.0)
        assert stats.flash_page_reads == before
        assert second.request_class == SSD_READ_MISS

    def test_invalidate_carries_log_dirty_lines(self):
        ctrl, engine, stats, config = build_skybyte()
        ctrl.access(write_req(4, line=9), 0.0)
        mask = ctrl.invalidate_page(4)
        assert mask & (1 << 9)
        assert not ctrl.contains_page(4)

    def test_demote_reenters_via_write_log(self):
        ctrl, engine, stats, config = build_skybyte()
        appends_before = stats.log_appends
        ctrl.demote_page(6, dirty_mask=0b101, now=0.0)
        assert stats.log_appends == appends_before + 2
        assert ctrl.dram.write_log.has_line(6, 0)
        assert ctrl.dram.write_log.has_line(6, 2)

    def test_drain_empties_log(self):
        ctrl, engine, stats, config = build_skybyte()
        ctrl.access(write_req(1), 0.0)
        ctrl.drain(10.0)
        engine.run()
        assert ctrl.dram.write_log.used_entries == 0

    def test_prefetch_on_read_miss(self):
        ctrl, engine, stats, config = build_skybyte()
        ctrl.access(read_req(20), 0.0)
        assert stats.prefetch_issued >= 1

    def test_warm_access_populates_without_flash(self):
        ctrl, engine, stats, config = build_skybyte()
        stats.enabled = False
        ctrl.warm_access(5, 0, False)
        ctrl.warm_access(6, 1, True)
        stats.enabled = True
        assert ctrl.dram.data_cache.peek(5) is not None
        assert ctrl.dram.write_log.has_line(6, 1)
        assert stats.flash_page_reads == 0


class TestPrefetchInflightRule:
    """A prefetch skips a page whose fetch is still in flight at *device*
    time: an in-flight entry with ``ready <= now`` has landed, even while
    engine time is still below ``ready`` (requests reach the device ahead
    of engine time, e.g. behind AstriFlash's 4 KB writebacks)."""

    @staticmethod
    def _prefetch_after(build, ready, now):
        ctrl, engine, stats, config = build()
        lpa = 40
        nxt = lpa + 1
        assert ctrl.ftl.translate(nxt) is not None
        assert not ctrl.contains_page(nxt)
        ctrl._inflight[nxt] = ready
        assert engine.now < ready
        ctrl._maybe_prefetch(lpa, now)
        return stats.prefetch_issued, ctrl._inflight[nxt], config.ssd.prefetch_depth

    def test_landed_entry_is_not_in_flight(self):
        for build in (build_base, build_skybyte):
            issued, ready, depth = self._prefetch_after(build, 100.0, 100.0)
            assert issued == depth
            assert ready > 100.0  # a new fetch replaced the landed one

    def test_pending_entry_is_in_flight(self):
        for build in (build_base, build_skybyte):
            issued, ready, depth = self._prefetch_after(build, 500.0, 100.0)
            assert ready == 500.0  # no second fetch of the same page
            assert issued == depth - 1
