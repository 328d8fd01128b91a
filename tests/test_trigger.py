"""Tests for the context-switch trigger policy (Algorithm 1), through
the read-miss path of both controllers' one entry, ``access_line``."""

import pytest

from repro.config import FLASH_TIMINGS, FlashGeometry, SimConfig, SSDConfig
from repro.core.controller import SkyByteController
from repro.sim.engine import Engine
from repro.sim.stats import SSD_READ_MISS, SimStats
from repro.ssd.base_controller import BaseCSSDController

ULL = FLASH_TIMINGS["ULL"]

#: Both controllers decide Algorithm 1's hint on a read miss.
CONTROLLERS = (SkyByteController, BaseCSSDController)


def build(cls=SkyByteController, threshold_ns=2000.0, enabled=True):
    geometry = FlashGeometry(
        channels=2, chips_per_channel=1, dies_per_chip=2, planes_per_die=1,
        blocks_per_plane=8, pages_per_block=4,
    )
    config = SimConfig(
        ssd=SSDConfig(geometry=geometry, dram_bytes=64 * 1024,
                      write_log_bytes=8 * 1024),
        seed=0,
    ).replace(os=dict(cs_threshold_ns=threshold_ns))
    return cls(config, Engine(), SimStats(), ctx_switch_enabled=enabled)


def miss(ctrl, lpa, channel):
    """A read miss of ``lpa``, first mapped to a page of ``channel``."""
    ctrl.ftl.write(lpa, channel=channel)
    return miss_mapped(ctrl, lpa, channel)


def miss_mapped(ctrl, lpa, channel):
    assert ctrl.flash.channel_of(ctrl.ftl.translate(lpa)) == channel
    result = ctrl.access_line(lpa, 0, False, 0.0)
    assert result.request_class == SSD_READ_MISS
    return result


def test_algorithm1_formula_exact():
    """Lines 5-6 of Algorithm 1, verbatim, on a channel holding 2 queued
    reads, 1 program and 1 erase."""
    channel = build().flash.channels[0]
    channel.submit_read(0.0)
    channel.submit_read(0.0)
    channel.submit_program(0.0)
    channel.submit_erase(0.0)
    assert (channel.queued_reads, channel.queued_programs,
            channel.queued_erases) == (2, 1, 1)
    est = channel.estimate_read_fifo_ns()
    assert est == pytest.approx(ULL.read_ns * 3 + ULL.program_ns + ULL.erase_ns)


def test_triggers_when_estimate_exceeds_threshold():
    """The paper's default: flash read (3 us) > threshold (2 us), so even
    an idle channel's read triggers a switch."""
    for cls in CONTROLLERS:
        result = miss(build(cls, threshold_ns=2000.0), 0, 0)
        assert result.delay_hint
        assert result.est_delay_ns >= ULL.read_ns


def test_no_trigger_with_high_threshold():
    for cls in CONTROLLERS:
        assert not miss(build(cls, threshold_ns=80_000.0), 0, 0).delay_hint


def test_trigger_scales_with_queue_depth():
    for cls in CONTROLLERS:
        ctrl = build(cls, threshold_ns=50_000.0)
        for _ in range(40):
            ctrl.flash.channels[0].submit_read(0.0)
        assert miss(ctrl, 0, 0).delay_hint


def test_gc_active_triggers_immediately():
    """§III-A: "If a request is blocked by an ongoing garbage collection,
    SkyByte will immediately trigger a context switch"."""
    for cls in CONTROLLERS:
        ctrl = build(cls, threshold_ns=1e12)
        for i in range(4):
            ctrl.ftl.write(i, channel=0)
        for i in range(4):
            ctrl.ftl.write(i, channel=0)
        ctrl.gc.collect(0, 0.0)
        assert ctrl.gc.active[0]
        assert miss_mapped(ctrl, 0, 0).delay_hint


def test_disabled_never_triggers():
    for cls in CONTROLLERS:
        result = miss(build(cls, enabled=False), 0, 0)
        assert not result.delay_hint
        if cls is BaseCSSDController:
            assert result.est_delay_ns > 0  # the estimate is still reported


def test_channel_selection_by_ppa():
    for cls in CONTROLLERS:
        ctrl = build(cls, threshold_ns=50_000.0)
        # Load only channel 1's queue.
        for _ in range(40):
            ctrl.flash.channels[1].submit_read(0.0)
        assert not miss(ctrl, 0, 0).delay_hint
        assert miss(ctrl, 1, 1).delay_hint
