"""Tests for the interval core model and coordinated context switching,
exercised through small end-to-end systems."""

import pytest

from repro.config import scaled_config
from repro.sim.system import System
from repro.variants import get_variant


def run_system(variant, traces, threads=None, mlp=8, **cfg_kwargs):
    config = scaled_config(scale=512, threads=threads or len(traces))
    for key, value in cfg_kwargs.items():
        config = config.replace(**{key: value})
    system = System(config, traces, get_variant(variant), workload_mlp=mlp)
    stats = system.run()
    return system, stats


def uniform_trace(n, pages, gap=50, write_every=0, stride=1):
    trace = []
    for i in range(n):
        is_write = write_every > 0 and i % write_every == 0
        trace.append((gap, is_write, ((i * stride) % pages) * 4096))
    return trace


class TestDramOnly:
    def test_executes_all_instructions(self):
        traces = [uniform_trace(100, 10)]
        _, stats = run_system("DRAM-Only", traces)
        expected = sum(r[0] for r in traces[0]) + 0  # gaps (ops not counted)
        assert stats.instructions == expected

    def test_memory_stall_positive(self):
        _, stats = run_system("DRAM-Only", [uniform_trace(100, 10)])
        assert stats.memory_stall_ns > 0
        assert stats.compute_ns > 0

    def test_no_flash_activity(self):
        _, stats = run_system("DRAM-Only", [uniform_trace(50, 4)])
        assert stats.flash_page_reads == 0
        assert stats.flash_page_writes == 0

    def test_all_requests_host_class(self):
        _, stats = run_system("DRAM-Only", [uniform_trace(50, 4)])
        assert stats.request_breakdown()["H-R/W"] == pytest.approx(1.0)


class TestContextSwitching:
    def test_no_switches_without_extra_threads(self):
        """With threads == cores and a full run queue, the exception
        handler finds nobody else to run."""
        traces = [uniform_trace(60, 200) for _ in range(8)]
        _, stats = run_system("SkyByte-C", traces)
        # switches possible only via quantum preemption; with short traces
        # there should be essentially none
        assert stats.context_switches <= 8

    def test_switches_with_oversubscription(self):
        traces = [uniform_trace(60, 400) for _ in range(16)]
        _, stats = run_system("SkyByte-C", traces, threads=16,
                              warmup_fraction=0.0)
        assert stats.context_switches > 0
        assert stats.context_switch_ns > 0

    def test_switch_cost_is_kernel_cost(self):
        traces = [uniform_trace(60, 400) for _ in range(16)]
        system, stats = run_system("SkyByte-C", traces, threads=16)
        assert system.switch_cost_ns == system.config.os.context_switch_ns
        if stats.context_switches:
            per_switch = stats.context_switch_ns / stats.context_switches
            assert per_switch == pytest.approx(system.config.os.context_switch_ns)

    def test_base_cssd_never_delay_switches(self):
        traces = [uniform_trace(60, 400) for _ in range(16)]
        _, stats_base = run_system("Base-CSSD", traces, threads=16,
                                   warmup_fraction=0.0)
        _, stats_c = run_system("SkyByte-C", traces, threads=16,
                                warmup_fraction=0.0)
        assert stats_c.context_switches > stats_base.context_switches

    def test_all_threads_complete_under_switching(self):
        traces = [uniform_trace(40, 300) for _ in range(12)]
        system, stats = run_system("SkyByte-C", traces, threads=12)
        assert all(t.done for t in system.threads)


#: Thread 0's trace: one 4-op window (distinct pages, small gaps).
WINDOW = [(10, False, (100 + i) * 4096) for i in range(4)]


def one_slice(hint_ops, runnable=True, just_resumed=False, est_ns=None):
    """Run one window of thread 0 on core 0 of a SkyByte-C system whose
    controller answers exactly the ops at ``hint_ops`` with a
    ``SkyByte-Delay`` hint.  Returns (system, thread 0, pages issued)."""
    traces = [list(WINDOW), [(10, False, (900 + i) * 4096) for i in range(4)]]
    config = scaled_config(scale=512, threads=2).replace(warmup_fraction=0.0)
    system = System(config, traces, get_variant("SkyByte-C"))
    hint_pages = {WINDOW[i][2] >> 12 for i in hint_ops}
    threshold = system.config.os.cs_threshold_ns
    issued = []
    #: The issued accesses' AMAT breakdowns, in order.
    system.breakdowns = []
    real_access_line = system.controller.access_line

    def access_line(lpa, line, is_write, now, float_hits=False):
        # Always an AccessResult, so the hint can be set on it.
        issued.append(lpa)
        result = real_access_line(lpa, line, is_write, now)
        system.breakdowns.append(dict(result.breakdown))
        result.delay_hint = lpa in hint_pages
        result.est_delay_ns = threshold if est_ns is None else est_ns
        return result

    system.controller.access_line = access_line
    system.prepare()
    scheduler = system.scheduler
    queued = [scheduler.pick_next() for _ in range(scheduler.runnable())]
    if runnable:
        scheduler.enqueue(system.threads[1])
    thread = system.threads[0]
    assert thread in queued
    thread.just_resumed = just_resumed
    core = system.cores[0]
    core.thread = thread
    core._run_slice()
    return system, thread, issued


def assert_slice_stats(stats, issued, retired, switches):
    """The stats of one window whose first ``retired`` ops retire: the
    rest of the issued ops (the trigger) is squashed out of AMAT and the
    request classes, but its gap instructions ran and its line was read."""
    assert stats.instructions == sum(op[0] for op in WINDOW[:len(issued)])
    assert stats.amat_accesses == retired
    assert sum(stats.request_counts.values()) == retired
    assert stats.offchip_latency.count == retired
    assert stats.host_lines_read == len(issued)
    assert stats.context_switches == switches


class TestWindowLoop:
    """The window loop acts on a hint at the op that carries it: ops
    after it are never issued, it is squashed and replayed first, and
    only the older ops retire."""

    @pytest.mark.parametrize("switch_at", [0, 1, 3])
    def test_switch_at_first_middle_last_op(self, switch_at):
        system, thread, issued = one_slice([switch_at])
        page = WINDOW[switch_at][2]
        # Ops after the trigger are never issued.
        assert issued == [op[2] >> 12 for op in WINDOW[:switch_at + 1]]
        # The replay is the packed op (a packed op carries no gap).
        assert thread.replay == page << 1
        assert thread.just_resumed
        assert system.cores[0].thread is system.threads[1]
        assert_slice_stats(system.stats, issued, retired=switch_at,
                           switches=1)
        assert system.stats.context_switch_ns == (
            system.config.os.context_switch_ns)
        _, resumed = thread.next_window(10_000, 8)
        assert list(resumed) == [page << 1] + [
            address << 1 for _, _, address in WINDOW[switch_at + 1:]]

    def test_squashed_access_leaves_no_amat_trace(self):
        """The trigger's device-side AMAT components are reversed: the
        sums are the retired accesses' alone (up to rounding)."""
        system, _, _ = one_slice([2])
        stats = system.stats
        retired = system.breakdowns[:2]
        assert len(system.breakdowns) == 3
        for key, total in (("indexing", stats.amat_indexing_ns),
                           ("ssd_dram", stats.amat_ssd_dram_ns),
                           ("flash", stats.amat_flash_ns)):
            assert total == pytest.approx(
                sum(b.get(key, 0.0) for b in retired), abs=1e-6)
        assert stats.amat_host_dram_ns == 0.0

    def test_rewind_leaves_cursor_at_squashed_ops(self):
        _, thread, _ = one_slice([1])
        assert thread.pos == 2

    def test_hint_ignored_without_runnable_threads(self):
        system, thread, issued = one_slice([1], runnable=False)
        assert len(issued) == len(WINDOW)
        assert thread.replay is None
        assert_slice_stats(system.stats, issued, retired=len(WINDOW),
                           switches=0)

    @pytest.mark.parametrize("near", [True, False])
    def test_just_resumed_guard(self, near):
        """A just-resumed thread ignores a hint estimated below four
        switch thresholds, and acts on one at or above it."""
        threshold = scaled_config(scale=512).os.cs_threshold_ns
        est = 4 * threshold * (0.5 if near else 1.0)
        system, thread, issued = one_slice([1], just_resumed=True,
                                           est_ns=est)
        assert len(issued) == (len(WINDOW) if near else 2)
        assert_slice_stats(system.stats, issued,
                           retired=len(WINDOW) if near else 1,
                           switches=0 if near else 1)


class TestMLPModel:
    def test_low_mlp_serialises_misses(self):
        """Pointer-chasing (MLP=1) exposes more stall than streaming
        (MLP=8) on the same trace."""
        traces = [uniform_trace(64, 500, gap=10)]
        _, serial = run_system("Base-CSSD", traces, mlp=1)
        _, parallel = run_system("Base-CSSD", traces, mlp=8)
        assert serial.execution_ns > parallel.execution_ns

    def test_mlp_capped_by_l1_mshrs(self):
        traces = [uniform_trace(16, 100)]
        system, _ = run_system("Base-CSSD", traces, mlp=64)
        assert system.cores[0]._mlp <= system.config.cpu.l1_mshrs


class TestAccounting:
    def test_offchip_latencies_recorded(self):
        _, stats = run_system("Base-CSSD", [uniform_trace(60, 30)])
        assert stats.offchip_latency.count > 0

    def test_boundedness_sums_to_one(self):
        _, stats = run_system("Base-CSSD", [uniform_trace(60, 30)])
        assert sum(stats.boundedness().values()) == pytest.approx(1.0)

    def test_execution_time_positive_and_finite(self):
        _, stats = run_system("Base-CSSD", [uniform_trace(60, 30)])
        assert 0 < stats.execution_ns < 1e12

    def test_a_thread_preempted_on_its_last_window_still_finishes(self):
        """With a quantum shorter than any window, every slice ends in a
        quantum expiry, the last one included: each thread must still
        report done, or the run never records its end."""
        traces = [uniform_trace(40, 16) for _ in range(12)]
        system, stats = run_system("DRAM-Only", traces,
                                   os={"quantum_ns": 1.0})
        assert system._threads_done == len(traces)
        assert stats.execution_ns > 0
