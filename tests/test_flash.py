"""Tests for the flash array timing model."""

import pytest

from repro.config import FLASH_TIMINGS, FlashGeometry
from repro.sim.engine import Engine
from repro.sim.stats import SimStats
from repro.ssd.flash import FlashArray, FlashChannel, PAGE_TRANSFER_NS, PROGRAM_SUSPEND_NS

ULL = FLASH_TIMINGS["ULL"]


def small_geometry(channels=2, chips=1, dies=2):
    return FlashGeometry(
        channels=channels,
        chips_per_channel=chips,
        dies_per_chip=dies,
        planes_per_die=1,
        blocks_per_plane=4,
        pages_per_block=8,
    )


def make_array(**kwargs):
    engine = Engine()
    stats = SimStats()
    array = FlashArray(small_geometry(**kwargs), ULL, engine, stats)
    return array, engine, stats


class TestGeometry:
    def test_paper_geometry_is_128gb(self):
        geo = FlashGeometry()
        assert geo.total_bytes == 128 * 1024 ** 3

    def test_address_arithmetic(self):
        array, _, _ = make_array()
        geo = array.geometry
        ppa = geo.pages_per_channel + 3  # second channel, page 3
        assert array.channel_of(ppa) == 1


class TestChannelTiming:
    def test_single_read_latency(self):
        array, _, _ = make_array()
        done = array.read_page(0, now=0.0)
        assert done == pytest.approx(ULL.read_ns + PAGE_TRANSFER_NS)

    def test_reads_overlap_across_dies(self):
        array, _, _ = make_array(dies=2)
        d1 = array.read_page(0, 0.0)
        d2 = array.read_page(1, 0.0)
        # Two dies: both reads' array ops overlap; transfers differ only
        # by bus-free model (fixed per-op here).
        assert d2 - d1 < ULL.read_ns

    def test_reads_queue_on_one_die(self):
        engine = Engine()
        ch = FlashChannel(0, dies=1, timing=ULL, engine=engine)
        d1 = ch.submit_read(0.0)
        d2 = ch.submit_read(0.0)
        assert d2 - d1 == pytest.approx(ULL.read_ns)

    def test_program_latency(self):
        array, _, _ = make_array()
        done = array.program_page(0, 0.0)
        assert done == pytest.approx(PAGE_TRANSFER_NS + ULL.program_ns)

    def test_erase_latency(self):
        array, _, _ = make_array()
        done = array.erase_block(0, 0.0)
        assert done == pytest.approx(ULL.erase_ns)

    def test_read_suspends_program(self):
        engine = Engine()
        ch = FlashChannel(0, dies=1, timing=ULL, engine=engine)
        ch.submit_program(0.0)
        done = ch.submit_read(0.0)
        # The read pays suspension, not the full program latency.
        assert done == pytest.approx(
            PROGRAM_SUSPEND_NS + ULL.read_ns + PAGE_TRANSFER_NS
        )
        assert done < ULL.program_ns

    def test_read_waits_for_erase(self):
        engine = Engine()
        ch = FlashChannel(0, dies=1, timing=ULL, engine=engine)
        ch.submit_erase(0.0)
        done = ch.submit_read(0.0)
        # Erases are not suspendable: this is the GC-blocking behaviour.
        assert done >= ULL.erase_ns

    def test_counters_track_and_decrement(self):
        array, engine, _ = make_array()
        array.read_page(0, 0.0)
        array.program_page(1, 0.0)
        ch = array.channels[0]
        assert ch.queued_reads == 1
        assert ch.queued_programs == 1
        engine.run()
        assert ch.queued_reads == 0
        assert ch.queued_programs == 0

    def test_completion_callback_fires(self):
        array, engine, _ = make_array()
        fired = []
        array.read_page(0, 0.0, on_done=lambda: fired.append(engine.now))
        engine.run()
        assert fired == [pytest.approx(ULL.read_ns + PAGE_TRANSFER_NS)]


class TestEstimators:
    def test_fifo_estimate_matches_algorithm1(self):
        """Algorithm 1 lines 5-6: read*(nr+1) + program*nw + erase*ne."""
        engine = Engine()
        ch = FlashChannel(0, dies=4, timing=ULL, engine=engine)
        ch.queued_reads = 2
        ch.queued_programs = 1
        ch.queued_erases = 1
        expected = ULL.read_ns * 3 + ULL.program_ns * 1 + ULL.erase_ns * 1
        assert ch.estimate_read_fifo_ns() == pytest.approx(expected)

    def test_die_aware_estimate_below_fifo(self):
        engine = Engine()
        ch = FlashChannel(0, dies=8, timing=ULL, engine=engine)
        ch.queued_reads = 8
        assert ch.estimate_read_ns() < ch.estimate_read_fifo_ns()

    def test_idle_estimate_exceeds_device_read(self):
        engine = Engine()
        ch = FlashChannel(0, dies=8, timing=ULL, engine=engine)
        assert ch.estimate_read_ns() >= ULL.read_ns

    def test_estimate_grows_with_queue(self):
        engine = Engine()
        ch = FlashChannel(0, dies=2, timing=ULL, engine=engine)
        e0 = ch.estimate_read_ns()
        ch.queued_reads = 4
        assert ch.estimate_read_ns() > e0


class TestArrayAccounting:
    def test_stats_count_operations(self):
        array, _, stats = make_array()
        array.read_page(0, 0.0)
        array.program_page(0, 0.0)
        array.erase_block(0, 0.0)
        assert stats.flash_page_reads == 1
        assert stats.flash_page_writes == 1
        assert stats.flash_block_erases == 1

    def test_stats_gated_by_warmup(self):
        array, _, stats = make_array()
        stats.enabled = False
        array.read_page(0, 0.0)
        assert stats.flash_page_reads == 0

    def test_ppa_bounds_checked(self):
        array, _, _ = make_array()
        with pytest.raises(ValueError):
            array.read_page(array.geometry.total_pages, 0.0)
        with pytest.raises(ValueError):
            array.erase_block(array.geometry.total_blocks, 0.0)
