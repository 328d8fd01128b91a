"""Device-level invariant suite for the deep flash model.

Pins the deep device model (``device_model="deep"``, see
``docs/DEVICE_MODEL.md``) with property tests over four layers:

* geometry arithmetic -- ppa <-> (channel, die, plane, block, page)
  round trips, capacity accounting, derived-value consistency;
* the queueing scheduler -- no command overlaps on an array unit,
  read-priority policies, bounded starvation of programs;
* estimator consistency -- ``preview_read_ns`` equals what a read
  actually charges, on both models;
* background GC -- mapping conservation across campaigns, erases only
  after full migration, the engine always drains;

plus flat-vs-deep differential identity (a 1x1x1 deep channel with the
default knobs reproduces the flat model's timing exactly) and the
serialisation regressions that keep flat-run digests untouched.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    FLASH_TIMINGS,
    DeviceModelConfig,
    FlashGeometry,
    SimConfig,
    SSDConfig,
)
from repro.experiments.orchestrator import SweepJob
from repro.sim.engine import Engine
from repro.sim.stats import DeviceStats, SimStats
from repro.ssd.factory import arbiter_slots, build_flash_subsystem
from repro.ssd.flash import (
    PAGE_TRANSFER_NS,
    PROGRAM_SUSPEND_NS,
    DeepFlashArray,
    FlashArray,
    FlashChannel,
)
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import BackgroundGarbageCollector, GarbageCollector
from repro.ssd.geometry import GeometryModel

ULL = FLASH_TIMINGS["ULL"]


def small_geometry(channels=2, chips=1, dies=2, planes=2, blocks=4, pages=8):
    return FlashGeometry(
        channels=channels,
        chips_per_channel=chips,
        dies_per_chip=dies,
        planes_per_die=planes,
        blocks_per_plane=blocks,
        pages_per_block=pages,
    )


#: Small-but-varied geometries for the hypothesis properties.
geometry_st = st.builds(
    small_geometry,
    channels=st.integers(1, 3),
    chips=st.integers(1, 2),
    dies=st.integers(1, 3),
    planes=st.integers(1, 2),
    blocks=st.integers(1, 4),
    pages=st.integers(1, 8),
)

#: Random command tapes: (kind, die, plane, inter-arrival ns).
op_st = st.tuples(
    st.sampled_from(["read", "program", "erase"]),
    st.integers(0, 2),
    st.integers(0, 1),
    st.floats(0.0, 5_000.0, allow_nan=False, allow_infinity=False),
)
tape_st = st.lists(op_st, min_size=1, max_size=40)


def play_deep(channel, tape):
    """Feed a command tape to a deep channel; returns completions."""
    now, done = 0.0, []
    for kind, die, plane, dt in tape:
        now += dt
        die %= channel.dies
        plane %= max(1, channel.planes)
        submit = getattr(channel, f"submit_{kind}")
        done.append(submit(die, plane, now))
    return done


class TestGeometryModel:
    @settings(max_examples=60, deadline=None)
    @given(geometry=geometry_st, data=st.data())
    def test_roundtrip_identity(self, geometry, data):
        model = GeometryModel(geometry, ULL)
        ppa = data.draw(st.integers(0, model.total_pages - 1))
        coords = model.decompose(ppa)
        assert model.compose(*coords) == ppa

    @settings(max_examples=60, deadline=None)
    @given(geometry=geometry_st, data=st.data())
    def test_decompose_agrees_with_flat_arithmetic(self, geometry, data):
        """The coordinate split is a strict refinement of FlashArray's
        channel/block arithmetic."""
        model = GeometryModel(geometry, ULL)
        array = FlashArray(geometry, ULL, Engine(), SimStats())
        ppa = data.draw(st.integers(0, model.total_pages - 1))
        channel, die, plane, block_in_plane, page = model.decompose(ppa)
        assert channel == array.channel_of(ppa)
        assert page == ppa % geometry.pages_per_block

    @settings(max_examples=60, deadline=None)
    @given(geometry=geometry_st)
    def test_capacity_accounting(self, geometry):
        model = GeometryModel(geometry, ULL)
        dies = geometry.chips_per_channel * geometry.dies_per_chip
        assert model.total_pages == (
            geometry.channels
            * dies
            * geometry.planes_per_die
            * geometry.blocks_per_plane
            * geometry.pages_per_block
        )
        assert model.total_blocks * model.pages_per_block == model.total_pages
        assert model.total_bytes == model.total_pages * geometry.page_size
        assert model.total_pages == geometry.total_pages
        assert model.total_blocks == geometry.total_blocks

    @settings(max_examples=60, deadline=None)
    @given(geometry=geometry_st)
    def test_derived_values_consistent(self, geometry):
        """Every derived stride is the product of the levels below it."""
        model = GeometryModel(geometry, ULL)
        assert model.pages_per_plane == model.blocks_per_plane * model.pages_per_block
        assert model.pages_per_die == model.planes_per_die * model.pages_per_plane
        assert model.pages_per_channel == model.dies_per_channel * model.pages_per_die
        assert model.blocks_per_die == model.planes_per_die * model.blocks_per_plane
        assert (
            model.blocks_per_channel == model.dies_per_channel * model.blocks_per_die
        )
        assert model.planes_per_channel == model.dies_per_channel * model.planes_per_die

    def test_compose_is_a_bijection(self):
        """Enumerating every coordinate hits every ppa exactly once."""
        model = GeometryModel(small_geometry(), ULL)
        seen = {
            model.compose(c, d, p, b, pg)
            for c in range(model.channels)
            for d in range(model.dies_per_channel)
            for p in range(model.planes_per_die)
            for b in range(model.blocks_per_plane)
            for pg in range(model.pages_per_block)
        }
        assert seen == set(range(model.total_pages))

    def test_out_of_range_rejected(self):
        model = GeometryModel(small_geometry(), ULL)
        with pytest.raises(ValueError):
            model.decompose(model.total_pages)
        with pytest.raises(ValueError):
            model.decompose(-1)
        with pytest.raises(ValueError):
            model.compose(0, model.dies_per_channel, 0, 0, 0)
        with pytest.raises(ValueError):
            model.compose(model.channels, 0, 0, 0, 0)

    def test_to_dict_reports_derived_counts(self):
        model = GeometryModel(small_geometry(), ULL)
        data = model.to_dict()
        assert data["total_pages"] == model.total_pages
        assert data["pages_per_channel"] == model.pages_per_channel
        assert data["dies_per_channel"] == model.dies_per_channel


class UnitPort:
    """Channel 0 of a one-channel :class:`DeepFlashArray`, commanded by
    (die, plane) unit.  Reads go through the array's one read entry,
    :meth:`DeepFlashArray.read_page`, at a page of that unit; programs,
    erases and every other attribute are the channel's own."""

    def __init__(self, array):
        self.array = array
        self.channel = array.channels[0]

    def submit_read(self, die, plane, now):
        return self.array.read_page(
            self.array.model.compose(0, die, plane, 0, 0), now)

    def __getattr__(self, name):
        return getattr(self.channel, name)


def deep_channel(dies=2, planes=2, **knobs):
    engine = Engine()
    log = []
    geometry = small_geometry(channels=1, dies=dies, planes=planes)
    array = DeepFlashArray(
        geometry, ULL, engine, SimStats(),
        device=DeviceModelConfig(kind="deep", **knobs), schedule_log=log,
    )
    return UnitPort(array), engine, log


class TestDeepScheduler:
    def test_single_read_latency(self):
        ch, _, _ = deep_channel()
        assert ch.submit_read(0, 0, 0.0) == pytest.approx(
            ULL.read_ns + PAGE_TRANSFER_NS
        )

    def test_reads_serialize_on_one_unit(self):
        ch, _, _ = deep_channel()
        d1 = ch.submit_read(0, 0, 0.0)
        d2 = ch.submit_read(0, 0, 0.0)
        assert d2 - d1 == pytest.approx(ULL.read_ns)

    def test_reads_overlap_across_planes(self):
        ch, _, _ = deep_channel(dies=1, planes=2)
        d1 = ch.submit_read(0, 0, 0.0)
        d2 = ch.submit_read(0, 1, 0.0)
        assert d2 == pytest.approx(d1)

    def test_plane_parallelism_off_serializes_a_die(self):
        ch, _, _ = deep_channel(dies=1, planes=2, plane_parallelism=False)
        d1 = ch.submit_read(0, 0, 0.0)
        d2 = ch.submit_read(0, 1, 0.0)
        assert d2 - d1 == pytest.approx(ULL.read_ns)

    def test_read_suspends_program(self):
        ch, _, _ = deep_channel()
        ch.submit_program(0, 0, 0.0)
        done = ch.submit_read(0, 0, 0.0)
        assert done == pytest.approx(
            PROGRAM_SUSPEND_NS + ULL.read_ns + PAGE_TRANSFER_NS
        )

    def test_no_read_priority_queues_behind_program(self):
        ch, _, _ = deep_channel(read_priority=False)
        prog_done = ch.submit_program(0, 0, 0.0)
        read_done = ch.submit_read(0, 0, 0.0)
        assert read_done == pytest.approx(
            prog_done + ULL.read_ns + PAGE_TRANSFER_NS
        )

    def test_bounded_bypass_budget_exhausts(self):
        """With max_read_bypass=1 the first read suspends the program,
        the second queues behind its (pushed-out) completion."""
        ch, _, _ = deep_channel(max_read_bypass=1)
        ch.submit_program(0, 0, 0.0)
        first = ch.submit_read(0, 0, 0.0)
        assert first == pytest.approx(
            PROGRAM_SUSPEND_NS + ULL.read_ns + PAGE_TRANSFER_NS
        )
        unit = ch._unit(0, 0)
        second = ch.submit_read(0, 0, 0.0)
        assert second >= unit.free  # queued, not another suspension

    def test_program_starvation_is_bounded(self):
        """A flood of priority reads cannot push a program past its
        bypass budget: after ``max_read_bypass`` suspensions the
        remaining reads queue behind it."""
        ch, _, _ = deep_channel(dies=1, planes=1, max_read_bypass=2)
        ch.submit_program(0, 0, 0.0)
        prog_done = ch._unit(0, 0).free
        bound = prog_done + 2 * (ULL.read_ns + PROGRAM_SUSPEND_NS)
        reads = [ch.submit_read(0, 0, 0.0) for _ in range(10)]
        # Read 3 finds the budget exhausted and queues behind the
        # program's effective completion -- exactly the two-suspension
        # bound -- and every later read follows FIFO with no further
        # suspend penalties.
        assert reads[2] - ULL.read_ns - PAGE_TRANSFER_NS == pytest.approx(bound)
        gaps = [b - a for a, b in zip(reads[2:], reads[3:])]
        assert all(g == pytest.approx(ULL.read_ns) for g in gaps)

    @settings(max_examples=60, deadline=None)
    @given(
        bypass=st.integers(1, 3),
        tape=st.lists(
            st.tuples(
                st.sampled_from(["read", "read", "read", "program"]),
                st.integers(0, 1),
                st.floats(0.0, 250_000.0, allow_nan=False,
                          allow_infinity=False),
            ),
            min_size=1, max_size=40,
        ),
    )
    def test_no_program_absorbs_more_than_its_bypass_budget(self, bypass,
                                                            tape):
        """Reads and programs issued out of time order: no program is
        suspended more than ``max_read_bypass`` times.  A read counts
        as a suspension of the unit's last logged program when its
        array time starts before that program's horizon, which each
        suspension pushes out by tR + tSuspend."""
        ch, _, log = deep_channel(dies=1, planes=2, max_read_bypass=bypass)
        for kind, plane, at in tape:
            getattr(ch, f"submit_{kind}")(0, plane, at)
        horizon, absorbed = {}, {}
        for kind, _die, plane, start, end in log:
            if kind == "program":
                horizon[plane], absorbed[plane] = end, 0
            elif plane in horizon and start < horizon[plane]:
                absorbed[plane] += 1
                assert absorbed[plane] <= bypass
                horizon[plane] = max(
                    horizon[plane] + ULL.read_ns + PROGRAM_SUSPEND_NS, end)
            elif plane in horizon:
                horizon[plane] = max(horizon[plane], end)

    def test_unbounded_bypass_matches_flat_semantics(self):
        """max_read_bypass=0 means every read re-suspends the in-flight
        program -- the flat channel's read-priority semantics, where each
        suspension also pushes the program (and so the next read's
        suspend point) out by tR + tSuspend."""
        ch, _, _ = deep_channel(dies=1, planes=1, max_read_bypass=0)
        ch.submit_program(0, 0, 0.0)
        reads = [ch.submit_read(0, 0, 0.0) for _ in range(4)]
        gaps = [b - a for a, b in zip(reads, reads[1:])]
        assert all(
            g == pytest.approx(ULL.read_ns + PROGRAM_SUSPEND_NS) for g in gaps
        )

    @settings(max_examples=50, deadline=None)
    @given(tape=tape_st)
    def test_exclusive_ops_never_overlap_on_a_unit(self, tape):
        """Reads and erases occupy their unit exclusively: their logged
        intervals never overlap per (die, plane)."""
        ch, _, log = deep_channel(dies=3, planes=2)
        play_deep(ch, tape)
        per_unit = {}
        for kind, die, plane, start, end in log:
            if kind != "program":
                per_unit.setdefault((die, plane), []).append((start, end))
        for intervals in per_unit.values():
            intervals.sort()
            for (_, prev_end), (nxt_start, _) in zip(intervals, intervals[1:]):
                assert nxt_start >= prev_end

    @settings(max_examples=50, deadline=None)
    @given(tape=tape_st)
    def test_fifo_scheduler_never_overlaps_anything(self, tape):
        """Without read priority no op of any kind overlaps another on
        its unit -- the strictest non-overlap invariant."""
        ch, _, log = deep_channel(dies=3, planes=2, read_priority=False)
        play_deep(ch, tape)
        per_unit = {}
        for _, die, plane, start, end in log:
            per_unit.setdefault((die, plane), []).append((start, end))
        for intervals in per_unit.values():
            intervals.sort()
            for (_, prev_end), (nxt_start, _) in zip(intervals, intervals[1:]):
                assert nxt_start >= prev_end

    @settings(max_examples=30, deadline=None)
    @given(tape=tape_st)
    def test_queued_counters_drain_to_zero(self, tape):
        ch, engine, _ = deep_channel()
        play_deep(ch, tape)
        assert ch.queue_depth > 0
        engine.run()
        assert ch.queued_reads == 0
        assert ch.queued_programs == 0
        assert ch.queued_erases == 0
        assert ch.queue_depth == 0

    def test_queue_depth_counts_in_flight_commands(self):
        ch, engine, _ = deep_channel()
        ch.submit_read(0, 0, 0.0)
        ch.submit_program(1, 0, 0.0)
        ch.submit_erase(1, 1, 0.0)
        assert ch.queue_depth == 3
        engine.run()
        assert ch.queue_depth == 0


class TestEstimatorConsistency:
    @settings(max_examples=60, deadline=None)
    @given(tape=tape_st, dies=st.integers(1, 4))
    def test_flat_preview_matches_charge(self, tape, dies):
        """Satellite: the flat channel's preview equals what submit_read
        actually charges, for any prior command tape."""
        ch = FlashChannel(0, dies, ULL, Engine())
        now = 0.0
        for kind, _, _, dt in tape:
            now += dt
            getattr(ch, f"submit_{kind}")(now)
        previewed = ch.preview_read_ns(now)
        done = ch.submit_read(now)
        assert done - now == pytest.approx(previewed)

    @settings(max_examples=60, deadline=None)
    @given(
        tape=tape_st,
        target=st.tuples(st.integers(0, 2), st.integers(0, 1)),
        read_priority=st.booleans(),
        bypass=st.integers(0, 3),
    )
    def test_deep_preview_matches_charge(self, tape, target, read_priority, bypass):
        ch, _, _ = deep_channel(
            dies=3, planes=2, read_priority=read_priority, max_read_bypass=bypass
        )
        now = sum(dt for _, _, _, dt in tape)
        play_deep(ch, tape)
        die, plane = target
        previewed = ch.preview_read_ns(die, plane, now)
        done = ch.submit_read(die, plane, now)
        assert done - now == pytest.approx(previewed)

    def test_flat_heuristic_formula_is_pinned(self):
        """Golden digests depend on Algorithm 1's heuristic estimate;
        assert the formula verbatim so a drive-by refactor cannot move
        the context-switch trigger."""
        ch = FlashChannel(0, 4, ULL, Engine())
        ch.submit_read(0.0)
        ch.submit_read(0.0)
        ch.submit_program(0.0)
        expected = (
            ULL.read_ns * ch.queued_reads / ch.dies
            + PROGRAM_SUSPEND_NS
            + ULL.read_ns
            + PAGE_TRANSFER_NS
        )
        assert ch.estimate_read_ns() == pytest.approx(expected)
        fifo = (
            ULL.read_ns * (ch.queued_reads + 1)
            + ULL.program_ns * ch.queued_programs
        )
        assert ch.estimate_read_fifo_ns() == pytest.approx(fifo)

    def test_deep_array_preview_matches_read_page(self):
        geometry = small_geometry()
        stats = SimStats()
        array = DeepFlashArray(geometry, ULL, Engine(), stats)
        ppa = array.model.compose(1, 0, 1, 2, 3)
        array.program_page(ppa, 0.0)
        previewed = array.preview_read_ns(ppa, 100.0)
        done = array.read_page(ppa, 100.0)
        assert done - 100.0 == pytest.approx(previewed)

    def test_deep_read_completion_callback_fires(self):
        """``on_done`` runs at the read's completion, after its channel
        dropped the queued read."""
        engine = Engine()
        array = DeepFlashArray(small_geometry(), ULL, engine, SimStats())
        ppa = array.model.compose(1, 0, 1, 2, 3)
        channel = array.channels[1]
        fired = []
        done = array.read_page(
            ppa, 0.0,
            on_done=lambda: fired.append((engine.now, channel.queued_reads)))
        assert channel.queued_reads == 1
        engine.run()
        assert fired == [(done, 0)]


class TestFlatDeepDifferential:
    @settings(max_examples=60, deadline=None)
    @given(tape=tape_st)
    def test_1x1x1_channel_reproduces_flat_timing(self, tape):
        """A deep channel with one die and one plane under the default
        knobs is timing-identical to the flat single-die channel."""
        flat = FlashChannel(0, 1, ULL, Engine())
        deep, _, _ = deep_channel(dies=1, planes=1)
        now = 0.0
        for kind, _, _, dt in tape:
            now += dt
            flat_done = getattr(flat, f"submit_{kind}")(now)
            deep_done = getattr(deep, f"submit_{kind}")(0, 0, now)
            assert deep_done == pytest.approx(flat_done)
            assert deep.free_at == pytest.approx(flat.free_at)
            assert deep.estimate_read_fifo_ns() == pytest.approx(
                flat.estimate_read_fifo_ns()
            )

    def test_1x1x1_array_reproduces_flat_array(self):
        """Full-array differential: with one die and one plane per
        channel, routing by geometry is indistinguishable from
        earliest-free-die dispatch."""
        geometry = small_geometry(channels=2, chips=1, dies=1, planes=1)
        flat = FlashArray(geometry, ULL, Engine(), SimStats())
        deep = DeepFlashArray(geometry, ULL, Engine(), SimStats())
        ops = [
            ("program_page", 3),
            ("read_page", 3),
            ("read_page", geometry.pages_per_channel + 1),
            ("program_page", 9),
            ("read_page", 9),
        ]
        now = 0.0
        for op, ppa in ops:
            assert getattr(deep, op)(ppa, now) == pytest.approx(
                getattr(flat, op)(ppa, now)
            )
            now += 500.0
        assert deep.erase_block(0, now) == pytest.approx(flat.erase_block(0, now))

    def test_deep_geometry_exposes_contention_flat_hides(self):
        """Two reads of the same die overlap under flat dispatch (it
        picks another die) but serialize under physical routing."""
        geometry = small_geometry(channels=1, chips=1, dies=2, planes=1)
        flat = FlashArray(geometry, ULL, Engine(), SimStats())
        deep = DeepFlashArray(geometry, ULL, Engine(), SimStats())
        # Two pages of the same die (die 0, different blocks).
        a = deep.model.compose(0, 0, 0, 0, 0)
        b = deep.model.compose(0, 0, 0, 1, 0)
        flat_second = max(flat.read_page(a, 0.0), flat.read_page(b, 0.0))
        deep_second = max(deep.read_page(a, 0.0), deep.read_page(b, 0.0))
        assert flat_second == pytest.approx(ULL.read_ns + PAGE_TRANSFER_NS)
        assert deep_second == pytest.approx(2 * ULL.read_ns + PAGE_TRANSFER_NS)


def build_deep(channels=1, blocks=8, pages=4, **device_kwargs):
    """A deep-model flash subsystem on a tiny geometry, via the factory."""
    geometry = FlashGeometry(
        channels=channels,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=blocks,
        pages_per_block=pages,
    )
    config = SimConfig(
        ssd=SSDConfig(
            geometry=geometry, dram_bytes=64 * 1024, write_log_bytes=8 * 1024
        ),
        device_model=DeviceModelConfig(kind="deep", **device_kwargs),
    )
    engine = Engine()
    stats = SimStats()
    ftl, flash, gc = build_flash_subsystem(config, engine, stats)
    return config, engine, stats, ftl, flash, gc


def churn(ftl, lpas, rounds, channel=0):
    for _ in range(rounds):
        for lpa in lpas:
            ftl.write(lpa, channel=channel)


class TestBackgroundGC:
    def test_campaign_is_deferred_to_the_engine(self):
        _, engine, stats, ftl, flash, gc = build_deep()
        lpas = list(range(4))
        while ftl.free_blocks_in_channel(0) > gc.watermark:
            churn(ftl, lpas, 1)
        assert gc.needs_collection(0)
        assert gc.maybe_collect(0, 0.0) is None  # deferred, not inline
        assert gc.active[0]
        assert stats.gc_invocations == 0  # nothing ran yet
        engine.run()
        assert stats.gc_invocations >= 1
        assert stats.device.background_campaigns >= 1

    def test_watermark_is_above_the_emergency_reserve(self):
        _, _, _, _, _, gc = build_deep(blocks=64)
        assert gc.watermark == gc.reserve_blocks + gc.blocks_per_campaign
        assert gc.watermark > gc.reserve_blocks

    @settings(max_examples=25, deadline=None)
    @given(
        lpa_count=st.integers(2, 6),
        rounds=st.integers(1, 12),
    )
    def test_gc_conserves_mappings(self, lpa_count, rounds):
        """Conservation: every written LPA stays translatable to exactly
        one PPA across any number of campaigns, and the FTL's own
        invariants (no lost/duplicated mappings) hold."""
        _, engine, stats, ftl, flash, gc = build_deep(blocks=8, pages=4)
        lpas = list(range(lpa_count))
        churn(ftl, lpas, rounds)
        gc.maybe_collect(0, 0.0)
        engine.run()
        for lpa in lpas:
            assert ftl.translate(lpa) is not None
        ftl.check_invariants()

    def test_erase_only_after_full_migration(self):
        """Every erased victim has zero live pages at erase submission:
        the campaign migrated (or never had) its valid data."""
        _, engine, stats, ftl, flash, gc = build_deep(blocks=8, pages=4)
        observed = []
        original = flash.erase_block

        def checked_erase(block, now, on_done=None):
            observed.append((block, len(ftl.blocks[block].live)))
            return original(block, now, on_done)

        flash.erase_block = checked_erase
        lpas = list(range(4))
        churn(ftl, lpas, 10)
        gc.maybe_collect(0, 0.0)
        engine.run()
        assert observed, "GC never erased anything"
        assert all(live == 0 for _, live in observed)

    def test_engine_always_drains(self):
        """The campaign chain terminates: made-progress AND
        below-watermark are both required to re-arm, so ``engine.run``
        returns even when the device stays nearly full."""
        _, engine, stats, ftl, flash, gc = build_deep(blocks=8, pages=4)
        churn(ftl, list(range(6)), 12)
        gc.maybe_collect(0, 0.0)
        engine.run()  # would hang forever if campaigns self-rescheduled
        assert not gc.active[0]

    def test_the_chain_stops_when_a_campaign_frees_no_net_block(self):
        """Relocating a fully valid victim takes as many free pages as
        erasing it gives back: that campaign made no progress, so the
        chain must not re-arm (it would re-arm forever)."""
        _, engine, stats, ftl, flash, gc = build_deep(blocks=8, pages=4)
        lpa = 0
        while ftl.free_blocks_in_channel(0) > gc.watermark:
            ftl.write(lpa, channel=0)  # no overwrite: every page stays valid
            lpa += 1
        gc.maybe_collect(0, 0.0)
        engine.run(until=10_000_000.0)
        assert not gc.active[0]
        assert stats.device.background_campaigns == 1

    def test_campaigns_chain_while_below_watermark(self):
        _, engine, stats, ftl, flash, gc = build_deep(blocks=8, pages=4)
        churn(ftl, list(range(6)), 12)
        gc.maybe_collect(0, 0.0)
        engine.run()
        assert stats.device.background_campaigns >= 1
        # After draining, the channel is at or recovering toward the
        # watermark and no campaign is pending.
        assert not gc.needs_collection(0) or not gc.active[0]

    def test_gc_counters_account_every_op(self):
        _, engine, stats, ftl, flash, gc = build_deep(blocks=8, pages=4)
        churn(ftl, list(range(4)), 10)
        gc.maybe_collect(0, 0.0)
        engine.run()
        device = stats.device
        assert device.gc_erases >= 1
        assert device.gc_reads == device.gc_programs  # one program per read
        assert device.gc_reads == stats.gc_page_moves
        assert stats.flash_block_erases >= device.gc_erases

    def test_migration_is_paced_not_instantaneous(self):
        """Programs are submitted at their read's completion, so a
        campaign with live pages finishes strictly later than a single
        op could."""
        _, engine, stats, ftl, flash, gc = build_deep(blocks=8, pages=4)
        for i in range(4):
            ftl.write(i, channel=0)
        for i in range(2):
            ftl.write(i, channel=0)
        done = gc.collect(0, 0.0)
        assert done >= ULL.read_ns + PAGE_TRANSFER_NS + ULL.program_ns + ULL.erase_ns

    def test_emergency_path_still_reclaims_synchronously(self):
        """Allocation-time starvation is handled inline even under the
        background collector (metadata updates are synchronous)."""
        _, engine, stats, ftl, flash, gc = build_deep(blocks=8, pages=4)
        lpas = list(range(6))
        churn(ftl, lpas, 12)  # writes far past raw capacity
        assert stats.gc_invocations >= 1
        for lpa in lpas:
            assert ftl.translate(lpa) is not None
        ftl.check_invariants()

    def test_background_gc_can_be_disabled(self):
        _, _, _, _, _, gc = build_deep(background_gc=False)
        assert type(gc) is GarbageCollector


class TestFactory:
    def test_flat_build(self):
        config = SimConfig()
        ftl, flash, gc = build_flash_subsystem(config, Engine(), SimStats())
        assert type(flash) is FlashArray
        assert type(gc) is GarbageCollector
        assert isinstance(ftl, PageFTL)

    def test_deep_build(self):
        config = SimConfig().replace(device_model=dict(kind="deep"))
        stats = SimStats()
        ftl, flash, gc = build_flash_subsystem(config, Engine(), stats)
        assert type(flash) is DeepFlashArray
        assert type(gc) is BackgroundGarbageCollector
        assert stats.device is not None

    def test_flat_build_attaches_no_device_stats(self):
        stats = SimStats()
        build_flash_subsystem(SimConfig(), Engine(), stats)
        assert stats.device is None

    def test_unknown_kind_rejected(self):
        config = SimConfig().replace(device_model=dict(kind="bogus"))
        with pytest.raises(ValueError):
            build_flash_subsystem(config, Engine(), SimStats())

    def test_arbiter_slots_track_parallel_units(self):
        config = SimConfig()
        geo = config.ssd.geometry
        dies = geo.chips_per_channel * geo.dies_per_chip
        assert arbiter_slots(config) == dies
        assert arbiter_slots(config.replace(device_model=dict(kind="deep"))) == (
            dies * geo.planes_per_die
        )
        assert arbiter_slots(
            config.replace(device_model=dict(kind="deep", plane_parallelism=False))
        ) == dies


class TestDeviceModelSerialization:
    def test_to_dict_omits_default_device_model(self):
        """Regression: a default device model must be invisible in the
        serialized config, or every golden digest changes."""
        assert "device_model" not in SimConfig().to_dict()

    def test_to_dict_includes_non_default(self):
        data = SimConfig().replace(device_model=dict(kind="deep")).to_dict()
        assert data["device_model"]["kind"] == "deep"

    def test_config_roundtrip(self):
        config = SimConfig().replace(device_model=dict(
            kind="deep", read_priority=False, max_read_bypass=3, gc_idle_ns=7.5
        ))
        restored = SimConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert restored.device_model == config.device_model

    def test_from_dict_without_block_gives_default(self):
        restored = SimConfig.from_dict(SimConfig().to_dict())
        assert restored.device_model == DeviceModelConfig()

    def test_sweep_key_stable_for_default_model(self):
        base = SweepJob.make("tab1-bc", "Base-CSSD", records_per_thread=50)
        spelled = SweepJob.make(
            "tab1-bc", "Base-CSSD", records_per_thread=50, device_model=None
        )
        assert base.key() == spelled.key()

    def test_sweep_key_changes_for_deep_model(self):
        base = SweepJob.make("tab1-bc", "Base-CSSD", records_per_thread=50)
        deep = SweepJob.make(
            "tab1-bc", "Base-CSSD", records_per_thread=50, device_model="deep"
        )
        assert base.key() != deep.key()

    def test_sweep_params_hashable_and_roundtrip(self):
        spec = {"kind": "deep", "read_priority": False}
        job = SweepJob.make(
            "tab1-bc", "Base-CSSD", records_per_thread=50, device_model=spec
        )
        hash(job)  # params must stay hashable (dict -> sorted tuple)
        assert job.kwargs()["device_model"] == spec


class TestDeviceStats:
    def make(self):
        device = DeviceStats()
        device.gc_reads = 5
        device.gc_programs = 5
        device.gc_erases = 2
        device.background_campaigns = 1
        device.note_queue_depth(0, 3)
        device.note_queue_depth(2, 7)
        return device

    def test_roundtrip(self):
        device = self.make()
        restored = DeviceStats.from_dict(
            json.loads(json.dumps(device.to_dict()))
        )
        assert restored.to_dict() == device.to_dict()

    def test_queue_depth_accounting(self):
        device = self.make()
        assert device.max_queue_depth == 7
        assert device.mean_queue_depth == pytest.approx(5.0)
        assert device.queue_depth_peak == [3, 0, 7]

    def test_merge_sums_and_maxes(self):
        a, b = self.make(), self.make()
        b.note_queue_depth(1, 9)
        a.merge(b)
        assert a.gc_reads == 10
        assert a.background_campaigns == 2
        assert a.queue_depth_peak == [3, 9, 7]
        assert a.queue_depth_samples == 5

    def test_simstats_summary_gated_on_device(self):
        stats = SimStats()
        assert "gc_reads" not in stats.summary()
        assert "device" not in stats.to_dict()
        stats.device = self.make()
        summary = stats.summary()
        assert summary["gc_reads"] == 5
        assert summary["max_queue_depth"] == 7
        assert "device" in stats.to_dict()

    def test_simstats_merge_folds_device(self):
        a, b = SimStats(), SimStats()
        b.device = self.make()
        a.merge(b)
        assert a.device is not None
        assert a.device.gc_reads == 5

    def test_simstats_roundtrip_keeps_device_stats(self):
        stats = SimStats()
        stats.device = self.make()
        restored = SimStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert restored.device is not None
        assert restored.device.to_dict() == stats.device.to_dict()
