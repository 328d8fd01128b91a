"""Tests for garbage collection."""

from repro.config import FLASH_TIMINGS, FlashGeometry, SSDConfig
from repro.sim.engine import Engine
from repro.sim.stats import SimStats
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import GarbageCollector


def build(channels=1, blocks=8, pages=4):
    geometry = FlashGeometry(
        channels=channels,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=blocks,
        pages_per_block=pages,
    )
    config = SSDConfig(geometry=geometry, dram_bytes=64 * 1024, write_log_bytes=8 * 1024)
    engine = Engine()
    stats = SimStats()
    ftl = PageFTL(geometry, seed=0)
    flash = FlashArray(geometry, FLASH_TIMINGS["ULL"], engine, stats)
    gc = GarbageCollector(config, ftl, flash, engine, stats)
    return config, engine, stats, ftl, flash, gc


def churn(ftl, lpas, rounds, channel=0):
    for _ in range(rounds):
        for lpa in lpas:
            ftl.write(lpa, channel=channel)


def test_no_collection_when_plenty_free():
    _, _, _, ftl, _, gc = build()
    ftl.write(0, channel=0)
    assert not gc.needs_collection(0)
    assert gc.maybe_collect(0, 0.0) is None


def test_collection_triggers_below_reserve():
    _, engine, stats, ftl, flash, gc = build()
    # Churn a few LPAs until free blocks drop to the reserve.
    lpas = list(range(4))
    while ftl.free_blocks_in_channel(0) > gc.reserve_blocks:
        churn(ftl, lpas, 1)
    assert gc.needs_collection(0)
    done = gc.maybe_collect(0, 0.0)
    assert done is not None
    assert stats.gc_invocations == 1


def test_collection_frees_blocks_and_preserves_mappings():
    _, engine, stats, ftl, flash, gc = build()
    lpas = list(range(4))
    while ftl.free_blocks_in_channel(0) > gc.reserve_blocks:
        churn(ftl, lpas, 1)
    before = {lpa: ftl.translate(lpa) for lpa in lpas}
    free_before = ftl.free_blocks_in_channel(0)
    gc.collect(0, 0.0)
    assert ftl.free_blocks_in_channel(0) >= free_before
    for lpa in lpas:
        assert ftl.translate(lpa) is not None
    ftl.check_invariants()


def test_gc_moves_counted():
    _, engine, stats, ftl, flash, gc = build()
    # Make a victim with some live pages: fill block 0 with 4 lpas, then
    # overwrite two of them.
    for i in range(4):
        ftl.write(i, channel=0)
    for i in range(2):
        ftl.write(i, channel=0)
    gc.collect(0, 0.0)
    assert stats.gc_page_moves >= 2
    assert stats.flash_block_erases >= 1


def test_gc_occupies_channel():
    """Reads issued after a GC erase on the same single-die channel wait
    for it -- the paper's GC-blocking tail."""
    _, engine, stats, ftl, flash, gc = build()
    for i in range(4):
        ftl.write(i, channel=0)
    for i in range(4):
        ftl.write(i, channel=0)
    gc.collect(0, 0.0)
    read_done = flash.read_page(ftl.translate(0), 0.0)
    assert read_done >= FLASH_TIMINGS["ULL"].erase_ns


def test_is_active_window():
    _, engine, _, ftl, flash, gc = build()
    for i in range(4):
        ftl.write(i, channel=0)
    for i in range(4):
        ftl.write(i, channel=0)
    done = gc.collect(0, 0.0)
    assert gc.active[0]
    engine.run()
    assert not gc.active[0]
    assert engine.now >= done


def test_emergency_collect_on_starvation():
    """Writing past the channel's capacity triggers the FTL emergency
    hook instead of raising, as long as there is reclaimable garbage."""
    _, engine, stats, ftl, flash, gc = build(blocks=8, pages=4)
    lpas = list(range(6))
    # Churn far past the raw capacity: every write beyond free space must
    # be satisfied by emergency GC reclaiming overwritten blocks.
    churn(ftl, lpas, 12)
    assert stats.gc_invocations >= 1
    for lpa in lpas:
        assert ftl.translate(lpa) is not None
    ftl.check_invariants()


def test_reserve_and_campaign_scale_with_geometry():
    config, _, _, _, _, gc = build(blocks=64)
    assert gc.reserve_blocks >= 2
    assert gc.blocks_per_campaign >= 1
