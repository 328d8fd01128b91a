"""Tests for statistics collection: histograms, locality, AMAT."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import (
    HOST_DRAM,
    LatencyHistogram,
    LocalityTracker,
    REQUEST_CLASSES,
    SimStats,
    SSD_READ_HIT,
    SSD_WRITE,
)


class TestLatencyHistogram:
    @given(
        now=st.floats(0.0, 1e9),
        latencies=st.lists(st.lists(st.floats(0.0, 1e7), max_size=8),
                           max_size=6),
    )
    def test_record_window_equals_record_loop(self, now, latencies):
        """Window-at-a-time recording is bit-identical to per-sample
        ``record`` of ``max(1.0, c - now)`` (clamp, sum order, extrema)."""
        one, batched = LatencyHistogram(), LatencyHistogram()
        for window in latencies:
            completes = [now + lat for lat in window]
            for c in completes:
                one.record(max(1.0, c - now))
            batched.record_window(completes, now)
        assert batched.to_dict() == one.to_dict()

    def test_mean_and_count(self):
        h = LatencyHistogram()
        for v in (100, 200, 300):
            h.record(v)
        assert h.count == 3
        assert h.mean == pytest.approx(200.0)

    def test_percentile_brackets_value(self):
        h = LatencyHistogram()
        for _ in range(99):
            h.record(100.0)
        h.record(1_000_000.0)
        # p50 should be near 100ns (upper bucket edge), p100 near 1ms.
        assert h.percentile(50) <= 200.0
        assert h.percentile(100) >= 1_000_000.0 * 0.7

    def test_fraction_below(self):
        h = LatencyHistogram()
        for _ in range(90):
            h.record(100.0)
        for _ in range(10):
            h.record(100_000.0)
        assert h.fraction_below(300.0) == pytest.approx(0.9)
        assert h.fraction_below(1e9) == pytest.approx(1.0)

    def test_cdf_monotone(self):
        h = LatencyHistogram()
        for v in (10, 100, 1000, 10_000, 100_000):
            for _ in range(5):
                h.record(v)
        cdf = h.cdf()
        xs = [p[0] for p in cdf]
        ys = [p[1] for p in cdf]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    def test_sub_nanosecond_clamped(self):
        h = LatencyHistogram()
        h.record(0.0)
        assert h.count == 1
        assert h.min >= 1.0

    @given(st.lists(st.floats(min_value=1.0, max_value=1e8), min_size=1, max_size=200))
    def test_percentiles_monotone_property(self, values):
        h = LatencyHistogram()
        for v in values:
            h.record(v)
        ps = [h.percentile(p) for p in (10, 25, 50, 75, 90, 99, 100)]
        assert ps == sorted(ps)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e7), min_size=1, max_size=100))
    def test_mean_within_range_property(self, values):
        h = LatencyHistogram()
        for v in values:
            h.record(v)
        assert min(values) * 0.99 <= h.mean <= max(values) * 1.01

    # -- percentile edges (the QoS figure's p99 source) ---------------------

    def test_empty_percentile_is_zero(self):
        assert LatencyHistogram().percentile(99) == 0.0
        assert LatencyHistogram().count_above(1.0) == 0

    def test_single_sample_every_percentile_is_its_bucket_edge(self):
        h = LatencyHistogram()
        h.record(5000.0)
        edges = {h.percentile(p) for p in (1, 50, 99, 100)}
        assert len(edges) == 1
        (edge,) = edges
        assert 5000.0 <= edge <= 5000.0 * 10 ** (1 / h.BUCKETS_PER_DECADE)

    def test_bucket_boundary_exactness(self):
        """A sample exactly on a decade boundary lands in bucket
        ``log10(v) * 10`` and reports that bucket's upper edge."""
        h = LatencyHistogram()
        h.record(100.0)  # bucket int(2.0 * 10) = 20
        assert h.percentile(50) == pytest.approx(10 ** 2.1)
        assert h.percentile(99) == pytest.approx(10 ** 2.1)

    def test_p50_p99_ordering_with_heavy_tail(self):
        h = LatencyHistogram()
        for _ in range(98):
            h.record(100.0)
        h.record(50_000.0)
        h.record(60_000.0)
        assert h.percentile(50) < h.percentile(99)
        assert h.percentile(99) >= 50_000.0

    def test_count_above_is_slo_violation_counter(self):
        h = LatencyHistogram()
        for _ in range(9):
            h.record(100.0)
        h.record(1_000_000.0)
        assert h.count_above(20_000.0) == 1
        assert h.count_above(1e9) == 0
        # Threshold below every bucket edge counts everything.
        assert h.count_above(0.5) == 10

    @given(
        a=st.lists(st.floats(min_value=1.0, max_value=1e8), max_size=80),
        b=st.lists(st.floats(min_value=1.0, max_value=1e8), max_size=80),
    )
    def test_merge_is_bucket_exact(self, a, b):
        """merge(other) then querying == recording every sample here."""
        left, right, both = (LatencyHistogram() for _ in range(3))
        for v in a:
            left.record(v)
            both.record(v)
        for v in b:
            right.record(v)
            both.record(v)
        left.merge(right)
        assert left.count == both.count
        assert left.cdf() == both.cdf()
        assert left.mean == pytest.approx(both.mean)
        assert left.max == both.max
        for p in (50, 99):
            assert left.percentile(p) == both.percentile(p)


class TestLocalityTracker:
    def test_cdf_counts_pages(self):
        t = LocalityTracker()
        t.record(1)
        t.record(1)
        t.record(64)
        assert t.count == 3
        assert t.fraction_of_pages_below(0.4) == pytest.approx(2 / 3)

    def test_mean_ratio(self):
        t = LocalityTracker()
        t.record(32)
        assert t.mean_ratio() == pytest.approx(0.5)

    def test_clamping(self):
        t = LocalityTracker()
        t.record(1000)
        t.record(-5)
        assert t.count == 2
        assert t.fraction_of_pages_below(0.0) == pytest.approx(0.5)

    @given(st.lists(st.integers(min_value=0, max_value=64), min_size=1, max_size=300))
    def test_cdf_reaches_one(self, touches):
        t = LocalityTracker()
        for k in touches:
            t.record(k)
        cdf = t.cdf()
        assert cdf[-1][1] == pytest.approx(1.0)


class TestSimStats:
    def test_warmup_gating(self):
        s = SimStats()
        s.enabled = False
        s.count_request(SSD_WRITE)
        s.record_amat(flash=100.0)
        assert s.request_counts[SSD_WRITE] == 0
        assert s.amat_accesses == 0

    def test_amat_breakdown_sums_to_amat(self):
        s = SimStats()
        s.record_amat(host_dram=70.0)
        s.record_amat(indexing=49.0, ssd_dram=95.0)
        bd = s.amat_breakdown()
        assert sum(bd.values()) == pytest.approx(s.amat_ns)

    def test_boundedness_fractions_sum_to_one(self):
        s = SimStats()
        s.compute_ns += 30.0
        s.memory_stall_ns += 60.0
        s.add_context_switch(10.0)
        bd = s.boundedness()
        assert sum(bd.values()) == pytest.approx(1.0)
        assert bd["memory"] == pytest.approx(0.6)

    def test_request_breakdown_normalized(self):
        s = SimStats()
        for _ in range(3):
            s.count_request(SSD_READ_HIT)
        s.count_request(HOST_DRAM)
        bd = s.request_breakdown()
        assert sum(bd.values()) == pytest.approx(1.0)
        assert bd[SSD_READ_HIT] == pytest.approx(0.75)
        assert set(bd) == set(REQUEST_CLASSES)

    def test_write_amplification(self):
        s = SimStats()
        s.host_lines_written = 64  # one page worth of lines
        s.flash_page_writes = 4
        assert s.write_amplification == pytest.approx(4.0)

    def test_throughput_requires_time(self):
        s = SimStats()
        s.instructions = 100
        assert s.throughput_ipns == 0.0
        s.start_ns, s.end_ns = 0.0, 50.0
        assert s.throughput_ipns == pytest.approx(2.0)

    def test_summary_keys(self):
        s = SimStats()
        summary = s.summary()
        for key in ("execution_ns", "amat_ns", "write_amplification",
                    "memory_bound_frac", "flash_page_writes"):
            assert key in summary


class TestSimStatsMerge:
    def test_scalars_sum_and_window_unions(self):
        a, b = SimStats(), SimStats()
        a.instructions += 100
        b.instructions += 50
        a.count_request(SSD_READ_HIT)
        b.count_request(SSD_READ_HIT)
        b.count_request(HOST_DRAM)
        a.record_amat(flash=3000.0)
        b.record_amat(host_dram=70.0)
        a.start_ns, a.end_ns = 100.0, 900.0
        b.start_ns, b.end_ns = 50.0, 500.0
        a.merge(b)
        assert a.instructions == 150
        assert a.request_counts[SSD_READ_HIT] == 2
        assert a.request_counts[HOST_DRAM] == 1
        assert a.amat_accesses == 2
        assert a.amat_flash_ns == pytest.approx(3000.0)
        assert a.amat_host_dram_ns == pytest.approx(70.0)
        assert (a.start_ns, a.end_ns) == (50.0, 900.0)

    def test_histograms_and_locality_merge(self):
        a, b = SimStats(), SimStats()
        a.record_offchip(100.0)
        b.record_offchip(50_000.0)
        a.read_locality.record(4)
        b.read_locality.record(60)
        a.merge(b)
        assert a.offchip_latency.count == 2
        assert a.offchip_latency.count_above(20_000.0) == 1
        assert a.read_locality.count == 2


class TestTenantConservation:
    """Summing the per-tenant SimStats of a colocated run reproduces the
    aggregate host-side view exactly -- per-tenant attribution neither
    drops nor double-counts (docs/QOS.md).

    Holds without context-switch squashes: Base-CSSD with at most as
    many threads as cores never reverses an access.
    """

    TAB1 = ("bfs-dense", "bc", "radix", "srad", "ycsb", "tpcc", "dlrm")

    @pytest.mark.parametrize("workload", TAB1)
    def test_tab1_mix_conserves(self, workload):
        from repro.experiments.colocation import run_colocation
        from repro.scenarios.colocate import Tenant

        tenants = [
            Tenant(name="t0", scenario=workload, threads=2, seed=11),
            Tenant(name="t1", scenario="log-ingest", threads=2, seed=12),
        ]
        system = run_colocation(tenants, variant="Base-CSSD",
                                records_per_thread=60)
        merged = SimStats()
        for stats in system.tenant_stats:
            merged.merge(stats)
        aggregate = system.stats
        assert merged.request_counts == aggregate.request_counts
        assert merged.amat_accesses == aggregate.amat_accesses
        for key in ("amat_host_dram_ns", "amat_protocol_ns",
                    "amat_indexing_ns", "amat_ssd_dram_ns", "amat_flash_ns"):
            assert getattr(merged, key) == pytest.approx(
                getattr(aggregate, key))
        assert merged.offchip_latency.count == aggregate.offchip_latency.count
        assert merged.offchip_latency.cdf() == aggregate.offchip_latency.cdf()
        assert merged.offchip_latency.mean == pytest.approx(
            aggregate.offchip_latency.mean)
