"""Tests for the context-switch trigger policy (Algorithm 1)."""

import pytest

from repro.config import FLASH_TIMINGS, FlashGeometry, SSDConfig
from repro.core.trigger import ContextSwitchTrigger
from repro.sim.engine import Engine
from repro.sim.stats import SimStats
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import GarbageCollector

ULL = FLASH_TIMINGS["ULL"]


def build(threshold_ns=2000.0, enabled=True):
    geometry = FlashGeometry(
        channels=2, chips_per_channel=1, dies_per_chip=2, planes_per_die=1,
        blocks_per_plane=8, pages_per_block=4,
    )
    config = SSDConfig(geometry=geometry, dram_bytes=64 * 1024,
                       write_log_bytes=8 * 1024)
    engine = Engine()
    stats = SimStats()
    ftl = PageFTL(geometry, seed=0)
    flash = FlashArray(geometry, ULL, engine, stats)
    gc = GarbageCollector(config, ftl, flash, engine, stats)
    trigger = ContextSwitchTrigger(threshold_ns, flash, gc, enabled=enabled)
    return trigger, flash, gc, ftl, engine


def test_algorithm1_formula_exact():
    """Lines 5-6 of Algorithm 1, verbatim, on a channel holding 2 queued
    reads, 1 program and 1 erase."""
    _, flash, _, _, _ = build()
    channel = flash.channels[0]
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
    trigger, flash, gc, ftl, _ = build(threshold_ns=2000.0)
    decision = trigger.should_context_switch(0)
    assert decision.trigger
    assert decision.estimated_ns >= ULL.read_ns


def test_no_trigger_with_high_threshold():
    trigger, flash, gc, ftl, _ = build(threshold_ns=80_000.0)
    decision = trigger.should_context_switch(0)
    assert not decision.trigger


def test_trigger_scales_with_queue_depth():
    trigger, flash, gc, ftl, _ = build(threshold_ns=50_000.0)
    channel = flash.channels[0]
    for _ in range(40):
        channel.submit_read(0.0)
    decision = trigger.should_context_switch(0)
    assert decision.trigger


def test_gc_active_triggers_immediately():
    """§III-A: "If a request is blocked by an ongoing garbage collection,
    SkyByte will immediately trigger a context switch"."""
    trigger, flash, gc, ftl, engine = build(threshold_ns=1e12)
    for i in range(4):
        ftl.write(i, channel=0)
    for i in range(4):
        ftl.write(i, channel=0)
    gc.collect(0, 0.0)
    assert gc.is_active(0)
    decision = trigger.should_context_switch(0)
    assert decision.trigger


def test_disabled_never_triggers():
    trigger, flash, gc, ftl, _ = build(enabled=False)
    decision = trigger.should_context_switch(0)
    assert not decision.trigger
    assert decision.estimated_ns > 0  # estimate still computed


def test_channel_selection_by_ppa():
    trigger, flash, gc, ftl, _ = build(threshold_ns=50_000.0)
    # Load only channel 1's queue.
    busy_ppa = flash.geometry.pages_per_channel  # first page of channel 1
    for _ in range(40):
        flash.channels[1].submit_read(0.0)
    assert not trigger.should_context_switch(0).trigger
    assert trigger.should_context_switch(busy_ppa).trigger
