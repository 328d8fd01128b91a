"""Tests for the page-level FTL."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FlashGeometry
from repro.ssd import ftl as ftl_mod
from repro.ssd.ftl import BlockState, OutOfSpaceError, PageFTL


def small_geometry():
    return FlashGeometry(
        channels=2,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=4,
    )


def make_ftl():
    return PageFTL(small_geometry(), seed=1)


class TestTranslation:
    def test_unmapped_is_none(self):
        ftl = make_ftl()
        assert ftl.translate(0) is None

    def test_write_maps(self):
        ftl = make_ftl()
        ppa = ftl.write(5)
        assert ftl.translate(5) == ppa

    def test_overwrite_moves_page(self):
        ftl = make_ftl()
        first = ftl.write(5, channel=0)
        second = ftl.write(5, channel=0)
        assert second != first
        assert ftl.translate(5) == second

    def test_overwrite_invalidates_old_page(self):
        ftl = make_ftl()
        first = ftl.write(5, channel=0)
        ftl.write(5, channel=0)
        block = ftl.blocks[first // 4]
        assert first % 4 not in block.live


class TestAllocation:
    def test_round_robin_channels(self):
        ftl = make_ftl()
        channels = {ftl.pick_write_channel() for _ in range(2)}
        assert channels == {0, 1}

    def test_sequential_pages_within_block(self):
        ftl = make_ftl()
        p0 = ftl.allocate(0)
        p1 = ftl.allocate(0)
        assert p1 == p0 + 1

    def test_block_transitions_to_full(self):
        ftl = make_ftl()
        for _ in range(4):
            ftl.allocate(0)
        first_block = ftl.blocks[0]
        assert first_block.state == BlockState.FULL

    def test_out_of_space_raises(self):
        ftl = make_ftl()
        # Fill channel 0 completely minus the GC reserve.
        usable = (8 - ftl.gc_reserved_blocks) * 4
        for i in range(usable):
            ftl.write(i, channel=0)
        with pytest.raises(OutOfSpaceError):
            ftl.write(9999, channel=0)

    def test_gc_can_use_reserve(self):
        ftl = make_ftl()
        usable = (8 - ftl.gc_reserved_blocks) * 4
        for i in range(usable):
            ftl.write(i, channel=0)
        # GC relocation may still allocate.
        ppa = ftl.relocate(0, 0)
        assert ftl.translate(0) == ppa

    def test_emergency_hook_invoked(self):
        ftl = make_ftl()
        calls = []

        def reclaim(channel):
            calls.append(channel)

        ftl.on_out_of_space = reclaim
        usable = (8 - ftl.gc_reserved_blocks) * 4
        for i in range(usable):
            ftl.write(i, channel=0)
        with pytest.raises(OutOfSpaceError):
            ftl.write(9999, channel=0)
        assert calls == [0]


class TestVictimSelection:
    def test_greedy_prefers_most_invalid(self):
        ftl = make_ftl()
        # Block 0: write 4 pages then overwrite all of them (all invalid).
        for i in range(4):
            ftl.write(i, channel=0)
        for i in range(4):
            ftl.write(i, channel=0)  # moves to block 1, invalidating block 0
        victim = ftl.select_victim(0)
        assert victim is not None
        assert victim.index == 0
        assert victim.valid_count == 0

    def test_open_block_not_eligible(self):
        ftl = make_ftl()
        ftl.write(0, channel=0)  # block 0 open, not full
        assert ftl.select_victim(0) is None

    def test_release_block_returns_to_pool(self):
        ftl = make_ftl()
        for i in range(4):
            ftl.write(i, channel=0)
        for i in range(4):
            ftl.write(i, channel=0)
        victim = ftl.select_victim(0)
        free_before = ftl.free_blocks_in_channel(0)
        ftl.release_block(victim)
        assert ftl.free_blocks_in_channel(0) == free_before + 1
        assert victim.state == BlockState.FREE

    def test_release_with_live_pages_rejected(self):
        ftl = make_ftl()
        for i in range(4):
            ftl.write(i, channel=0)
        block = ftl.blocks[0]
        with pytest.raises(ValueError):
            ftl.release_block(block)


class TestPrecondition:
    def test_fills_logical_space(self):
        ftl = make_ftl()
        ftl.precondition(32)
        assert all(ftl.translate(lpa) is not None for lpa in range(32))
        ftl.check_invariants()

    def test_leaves_target_free_blocks(self):
        ftl = make_ftl()
        ftl.precondition(32, target_free_blocks_per_channel=3)
        for ch in range(2):
            assert ftl.free_blocks_in_channel(ch) >= ftl.gc_reserved_blocks

    def test_stripes_lpas_across_channels(self):
        ftl = make_ftl()
        ftl.precondition(16)
        geo = ftl.geometry
        for lpa in range(16):
            ppa = ftl.translate(lpa)
            assert ppa // geo.pages_per_channel == lpa % geo.channels


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["write", "relocate"]), st.integers(0, 15)),
        min_size=1,
        max_size=60,
    )
)
def test_invariants_hold_under_random_ops(ops):
    """Property: any interleaving of host writes and GC relocations keeps
    the mapping and per-block liveness mutually consistent."""
    ftl = make_ftl()
    for op, lpa in ops:
        try:
            if op == "write":
                ftl.write(lpa)
            else:
                ftl.relocate(lpa, channel=lpa % 2)
        except OutOfSpaceError:
            break
    ftl.check_invariants()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=50))
def test_latest_write_wins(lpas):
    """Property: translate() always returns the most recent mapping."""
    ftl = make_ftl()
    last = {}
    for lpa in lpas:
        try:
            last[lpa] = ftl.write(lpa)
        except OutOfSpaceError:
            break
    for lpa, ppa in last.items():
        assert ftl.translate(lpa) == ppa


def test_precondition_memo_shared_by_threads_stays_consistent(monkeypatch):
    """More threads than cores age FTLs through one small memo with
    more keys than it holds, so evictions race; every FTL ends in the
    serial state, and no eviction raises."""
    monkeypatch.setattr(ftl_mod, "_PRECONDITION_MEMO", {})
    monkeypatch.setattr(ftl_mod, "_PRECONDITION_MEMO_MAX", 2)
    keys = [(seed, pages) for seed in (1, 2, 3) for pages in (16, 24)]

    def aged(seed, pages):
        ftl = PageFTL(small_geometry(), seed=seed)
        ftl.precondition(pages)
        return ftl._snapshot_state()

    want = {key: aged(*key) for key in keys}
    failures = []

    def worker(offset):
        try:
            for i in range(60):
                key = keys[(i * 5 + offset) % len(keys)]
                if aged(*key) != want[key]:
                    failures.append(key)
        except Exception as exc:  # reported below, with the thread's key
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=worker, args=(k,))
                   for k in range(8)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in workers)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(ftl_mod._PRECONDITION_MEMO) <= 2
