"""Tests for the adaptive page migration engine and hotness policies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.tpp import TPPHotnessPolicy
from repro.config import scaled_config
from repro.core.controller import SkyByteController
from repro.core.migration import MigrationEngine, SkyByteHotnessPolicy
from repro.cxl.link import CXLLink
from repro.host.page_table import PageTable
from repro.sim.engine import Engine
from repro.sim.stats import SimStats


def build(threshold=4, budget_pages=8):
    config = scaled_config(scale=512).replace(ssd=dict(promotion_threshold=threshold))
    config = config.replace(cpu=dict(host_promote_budget_bytes=budget_pages * 4096))
    engine = Engine()
    stats = SimStats()
    controller = SkyByteController(config, engine, stats, ctx_switch_enabled=False)
    controller.ftl.precondition(256)
    page_table = PageTable()
    link = CXLLink(config.cxl, stats)
    migration = MigrationEngine(
        config, controller, page_table, link, engine, stats
    )
    migration.install(controller)
    return config, engine, stats, controller, page_table, migration


def observe(controller, page, is_write, now):
    """One page access through the controller's migration hooks, as
    ``access_line`` reports it."""
    if controller.on_page_access(page, is_write, now):
        controller.on_promotion_candidates(now)


def touch(controller, page, times, now=0.0):
    """Drive page accesses through the controller hooks."""
    for i in range(times):
        observe(controller, page, False, now + i)


class TestSkyByteHotness:
    def test_candidate_at_threshold(self):
        policy = SkyByteHotnessPolicy(threshold=3)
        for _ in range(2):
            policy.record_access(7, False, 0.0)
        assert policy.take_candidates(0.0) == []
        policy.record_access(7, False, 0.0)
        assert policy.take_candidates(0.0) == [7]

    def test_candidate_returned_once(self):
        policy = SkyByteHotnessPolicy(threshold=2)
        for _ in range(4):
            policy.record_access(7, False, 0.0)
        policy.take_candidates(0.0)
        assert policy.take_candidates(0.0) == []

    def test_forget_resets(self):
        policy = SkyByteHotnessPolicy(threshold=2)
        for _ in range(2):
            policy.record_access(7, False, 0.0)
        policy.take_candidates(0.0)
        policy.forget(7)
        for _ in range(2):
            policy.record_access(7, False, 0.0)
        assert policy.take_candidates(0.0) == [7]


class TestMigrationEngine:
    def test_hot_cached_page_promoted(self):
        config, engine, stats, controller, pt, migration = build(threshold=4)
        controller.warm_access(3, 0, False)  # page must be in SSD DRAM
        touch(controller, 3, 4)
        engine.run()
        assert pt.is_promoted(3)
        assert stats.pages_promoted == 1
        assert not controller.contains_page(3)

    def test_uncached_page_not_promoted(self):
        """§III-C: only pages in the SSD DRAM cache are migrated."""
        config, engine, stats, controller, pt, migration = build(threshold=4)
        touch(controller, 99, 4)
        engine.run()
        assert not pt.is_promoted(99)

    def test_promotion_has_latency(self):
        config, engine, stats, controller, pt, migration = build(threshold=2)
        controller.warm_access(3, 0, False)
        touch(controller, 3, 2)
        assert not pt.is_promoted(3)  # in flight, not instant
        assert migration.plb.is_migrating(3)
        engine.run()
        assert pt.is_promoted(3)
        assert not migration.plb.is_migrating(3)

    def test_dirty_log_lines_carried_to_host(self):
        config, engine, stats, controller, pt, migration = build(threshold=2)
        controller.warm_access(3, 0, False)
        observe(controller, 3, True, 0.0)
        controller.dram.write(3, 9, 0.0)
        observe(controller, 3, False, 1.0)
        engine.run()
        assert pt.is_promoted(3)
        assert pt.entry(3).dirty_mask & (1 << 9)

    def test_budget_enforced_with_demotion(self):
        config, engine, stats, controller, pt, migration = build(
            threshold=2, budget_pages=2
        )
        for page in range(4):
            controller.warm_access(page, 0, False)
            touch(controller, page, 2, now=page * 1_000_000.0)
            engine.run()
        assert pt.promoted_count <= 2

    def test_demotion_hysteresis_blocks_churn(self):
        config, engine, stats, controller, pt, migration = build(
            threshold=2, budget_pages=1
        )
        controller.warm_access(0, 0, False)
        touch(controller, 0, 2, now=0.0)
        engine.run()
        assert pt.is_promoted(0)
        # Page 0 was accessed "just now": a new candidate cannot evict it.
        pt.record_host_access(0, 0, False, engine.now)
        controller.warm_access(1, 0, False)
        touch(controller, 1, 2, now=engine.now)
        engine.run()
        assert pt.is_promoted(0)
        assert not pt.is_promoted(1)
        # The refusal must not lock page 1 out: once page 0 has been idle
        # past the hysteresis window, page 1 earns candidacy again and
        # displaces it.
        idle = pt.entry(0).last_access_ns + config.os.demote_min_idle_ns + 1.0
        touch(controller, 1, 2, now=idle)
        engine.run()
        assert pt.is_promoted(1)
        assert not pt.is_promoted(0)

    def test_explicit_demote_writes_dirty_back(self):
        config, engine, stats, controller, pt, migration = build(threshold=2)
        controller.warm_access(3, 0, False)
        touch(controller, 3, 2)
        engine.run()
        pt.record_host_access(3, 5, True, engine.now)
        appends_before = stats.log_appends
        assert migration.demote(3, engine.now)
        assert not pt.is_promoted(3)
        assert stats.log_appends > appends_before
        assert stats.pages_demoted == 1

    def test_tlb_shootdown_callback(self):
        config, engine, stats, controller, pt, migration = build(threshold=2)
        costs = []
        migration.on_tlb_shootdown = costs.append
        controller.warm_access(3, 0, False)
        touch(controller, 3, 2)
        engine.run()
        assert costs == [config.os.tlb_shootdown_ns]

    def test_warm_access_promotes_instantly(self):
        config, engine, stats, controller, pt, migration = build(threshold=2)
        controller.warm_access(3, 0, False)
        migration.warm_access(3, False)
        migration.warm_access(3, False)
        assert pt.is_promoted(3)
        assert engine.pending() == 0  # no timed events during warmup


class TestTPPHotness:
    def test_sampling_misses_accesses(self):
        policy = TPPHotnessPolicy(sample_rate=0.01, epoch_ns=10.0, seed=1)
        for _ in range(5):
            policy.record_access(3, False, 0.0)
        policy.record_access(3, False, 20.0)  # roll epoch
        # With 1% sampling, 5 accesses almost surely unsampled.
        assert policy.take_candidates(20.0) == []

    def test_two_sampled_touches_promote_at_epoch(self):
        policy = TPPHotnessPolicy(sample_rate=1.0, epoch_ns=100.0, seed=1)
        policy.record_access(3, False, 0.0)
        policy.record_access(3, False, 1.0)  # inactive -> active
        assert policy.take_candidates(50.0) == []  # not yet epoch end
        policy.record_access(9, False, 200.0)  # rolls the epoch
        assert policy.take_candidates(200.0) == [3]

    def test_promoted_pages_not_retracked(self):
        policy = TPPHotnessPolicy(sample_rate=1.0, epoch_ns=10.0, seed=1)
        policy.record_access(3, False, 0.0)
        policy.record_access(3, False, 1.0)
        policy.record_access(0, False, 20.0)
        policy.take_candidates(20.0)
        policy.record_access(3, False, 21.0)
        policy.record_access(3, False, 22.0)
        policy.record_access(0, False, 40.0)
        assert 3 not in policy.take_candidates(40.0)

    def test_forget_allows_retracking(self):
        policy = TPPHotnessPolicy(sample_rate=1.0, epoch_ns=10.0, seed=1)
        policy.record_access(3, False, 0.0)
        policy.record_access(3, False, 1.0)
        policy.record_access(0, False, 20.0)
        policy.take_candidates(20.0)
        policy.forget(3)
        policy.record_access(3, False, 21.0)
        policy.record_access(3, False, 22.0)
        policy.record_access(0, False, 40.0)
        assert 3 in policy.take_candidates(40.0)

    def test_invalid_sample_rate(self):
        with pytest.raises(ValueError):
            TPPHotnessPolicy(sample_rate=0.0)


class TestRecordAccessReturn:
    """``record_access`` returns True exactly when a candidate is
    pending, so the migration hook asks for candidates only then."""

    @staticmethod
    def _check(policy, accesses):
        now = 0.0
        for page, is_write, step in accesses:
            now += step
            pending = policy.record_access(page, is_write, now)
            taken = policy.take_candidates(now)
            assert pending == bool(taken)
            for page in taken:
                if page % 3 == 0:  # some promotions end in a demotion
                    policy.forget(page)

    @settings(max_examples=100, deadline=None)
    @given(accesses=st.lists(
        st.tuples(st.integers(0, 7), st.booleans(), st.sampled_from([0.0, 1.0])),
        max_size=80,
    ))
    def test_skybyte_policy(self, accesses):
        self._check(SkyByteHotnessPolicy(threshold=3), accesses)

    @settings(max_examples=100, deadline=None)
    @given(
        accesses=st.lists(
            st.tuples(st.integers(0, 7), st.booleans(),
                      st.sampled_from([0.0, 1.0, 4.0, 25.0])),
            max_size=80,
        ),
        seed=st.integers(0, 3),
    )
    def test_tpp_policy(self, accesses, seed):
        self._check(TPPHotnessPolicy(sample_rate=0.5, epoch_ns=10.0,
                                     seed=seed), accesses)

    def test_tpp_rejects_non_positive_epoch(self):
        with pytest.raises(ValueError):
            TPPHotnessPolicy(epoch_ns=0.0)
