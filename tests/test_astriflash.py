"""Tests for the AstriFlash-CXL baseline."""

import pytest

from repro.baselines.astriflash import AstriFlashController
from repro.config import scaled_config
from repro.cxl.link import CXLLink
from repro.sim.engine import Engine
from repro.sim.stats import HOST_DRAM, SimStats


def build(budget_pages=16):
    config = scaled_config(scale=512).replace(cpu=dict(
        host_promote_budget_bytes=budget_pages * 4096
    ))
    engine = Engine()
    stats = SimStats()
    link = CXLLink(config.cxl, stats)
    ctrl = AstriFlashController(config, engine, stats, link)
    ctrl.ftl.precondition(256)
    return ctrl, engine, stats, config


def read_req(page, line=0):
    return page, line, False


def write_req(page, line=0):
    return page, line, True


def access(ctrl, request, now):
    """Serve a ``(page, line, is_write)`` request through ``access_line``."""
    page, line, is_write = request
    return ctrl.access_line(page, line, is_write, now)


def test_host_hit_is_dram_speed_no_switch():
    ctrl, engine, stats, config = build()
    ctrl.warm_access(3, 0, False)
    result = access(ctrl, read_req(3, 1), 0.0)
    assert result.request_class == HOST_DRAM
    assert not result.delay_hint
    assert result.complete_ns == pytest.approx(config.cpu.dram_latency_ns)


def test_host_miss_always_switches():
    """AstriFlash switches (user-level) on every host DRAM miss."""
    ctrl, engine, stats, config = build()
    result = access(ctrl, read_req(7), 0.0)
    assert result.delay_hint
    assert result.est_delay_ns > 0


def test_miss_fills_host_cache():
    ctrl, engine, stats, config = build()
    access(ctrl, read_req(7), 0.0)
    assert 7 in ctrl.host_cache
    hit = access(ctrl, read_req(7, 5), 1e9)
    assert hit.request_class == HOST_DRAM


def test_page_granular_writeback_on_dirty_eviction():
    """The paper's contrast: AstriFlash manages the SSD at page
    granularity, so a dirty eviction pushes a whole page back."""
    ctrl, engine, stats, config = build(budget_pages=8)
    ways = ctrl.host_cache.ways
    sets = ctrl.host_cache.num_sets
    access(ctrl, write_req(0), 0.0)
    engine.run()
    # Evict page 0 by filling its set with conflicting pages.
    for k in range(1, ways + 1):
        access(ctrl, read_req(k * sets), engine.now)
        engine.run()
    entry = ctrl.inner.cache.peek(0)
    assert entry is not None
    assert entry.dirty_mask != 0


def test_writes_counted():
    ctrl, engine, stats, config = build()
    access(ctrl, write_req(1), 0.0)
    assert stats.host_lines_written == 1


def test_handles_link_flag():
    ctrl, _, _, _ = build()
    assert ctrl.handles_link is True


def test_drain_flushes_host_dirty():
    ctrl, engine, stats, config = build()
    access(ctrl, write_req(1), 0.0)
    ctrl.drain(engine.now)
    assert not ctrl.host_cache.dirty_entries()


def test_user_level_switch_cost_configured():
    ctrl, _, _, config = build()
    assert ctrl.user_level_switch_ns == config.os.user_level_switch_ns
    assert ctrl.user_level_switch_ns < config.os.context_switch_ns
