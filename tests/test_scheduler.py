"""Tests for the OS scheduler policies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.host.scheduler import Scheduler
from repro.host.threads import ThreadContext


def make_threads(n):
    return [ThreadContext(i, [(1, False, 0)]) for i in range(n)]


class TestRoundRobin:
    def test_fifo_order(self):
        s = Scheduler("RR")
        threads = make_threads(3)
        for t in threads:
            s.enqueue(t)
        assert [s.pick_next().tid for _ in range(3)] == [0, 1, 2]

    def test_prefer_not_skips_yielder(self):
        s = Scheduler("RR")
        threads = make_threads(3)
        for t in threads:
            s.enqueue(t)
        picked = s.pick_next(prefer_not=0)
        assert picked.tid == 1

    def test_yielder_chosen_when_alone(self):
        s = Scheduler("RR")
        t = make_threads(1)[0]
        s.enqueue(t)
        assert s.pick_next(prefer_not=0).tid == 0


class TestRandom:
    def test_deterministic_with_seed(self):
        def run(seed):
            s = Scheduler("RANDOM", seed=seed)
            for t in make_threads(10):
                s.enqueue(t)
            return [s.pick_next().tid for _ in range(10)]

        assert run(1) == run(1)
        assert run(1) != run(2)  # overwhelmingly likely

    def test_prefer_not_respected(self):
        s = Scheduler("RANDOM", seed=3)
        for t in make_threads(5):
            s.enqueue(t)
        for _ in range(5):
            picked = s.pick_next(prefer_not=2)
            if picked is None:
                break
            assert picked.tid != 2 or s.runnable() == 0


class TestFairness:
    def test_picks_least_runtime(self):
        s = Scheduler("FAIRNESS")
        threads = make_threads(3)
        threads[0].runtime_ns = 100.0
        threads[1].runtime_ns = 10.0
        threads[2].runtime_ns = 50.0
        for t in threads:
            s.enqueue(t)
        assert s.pick_next().tid == 1

    def test_cfs_may_repick_yielder(self):
        """The paper's CFS quirk: a just-yielded thread with the least
        vruntime is picked again."""
        s = Scheduler("FAIRNESS")
        threads = make_threads(2)
        threads[0].runtime_ns = 5.0
        threads[1].runtime_ns = 500.0
        for t in threads:
            s.enqueue(t)
        assert s.pick_next(prefer_not=0).tid == 0

    @settings(max_examples=150, deadline=None)
    @given(
        threads=st.lists(
            st.tuples(st.integers(0, 30), st.sampled_from([0.0, 1.0, 2.5])),
            min_size=1, max_size=12, unique_by=lambda t: t[0],
        ),
        requeue=st.lists(st.booleans(), max_size=30),
    )
    def test_fair_pick_matches_indexed_reference(self, threads, requeue):
        """Equal runtimes fall back to the tid; the rest of the queue
        keeps its order, exactly as popping the minimum index did."""
        s = Scheduler("FAIRNESS")
        reference = []
        for tid, runtime in threads:
            t = ThreadContext(tid, [(1, False, 0)])
            t.runtime_ns = runtime
            s.enqueue(t)
            reference.append(t)
        for again in requeue + [False] * len(threads):
            if not reference:
                break
            i = min(range(len(reference)),
                    key=lambda i: (reference[i].runtime_ns, reference[i].tid))
            expected = reference.pop(i)
            assert s.pick_next() is expected
            if again:  # yielded: charged and runnable again
                expected.runtime_ns += 1.0
                s.enqueue(expected)
                reference.append(expected)
            assert s._queue == reference
        assert s.runnable() == len(reference)

    def test_cfs_alias(self):
        assert Scheduler("CFS").policy == "FAIRNESS"


class TestQueueMechanics:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Scheduler("LOTTERY")

    def test_done_threads_not_enqueued(self):
        s = Scheduler("RR")
        t = ThreadContext(0, [])
        s.enqueue(t)
        assert s.runnable() == 0

    def test_empty_queue_returns_none(self):
        s = Scheduler("RR")
        assert s.pick_next() is None
