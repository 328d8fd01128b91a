"""Tests for streaming sweep results (``stream_sweep`` / ``CellUpdate``).

The contract: the stream yields one update per *distinct* cell in
completion order (cache-served cells first), fills the same positions
``run_sweep`` would, and is byte-identical to the barrier path on every
backend -- streaming changes delivery, never results.
"""

import json

import pytest

from repro.experiments.backends import LocalProcessBackend
from repro.experiments.orchestrator import (
    ResultCache,
    SweepJob,
    run_sweep,
    stream_sweep,
)

R = 120  # tiny traces: these tests check plumbing, not magnitudes


def tiny_jobs():
    return [
        SweepJob.make("bc", "Base-CSSD", records_per_thread=R),
        SweepJob.make("bc", "DRAM-Only", records_per_thread=R),
        SweepJob.make("ycsb", "SkyByte-Full", records_per_thread=R),
    ]


def dumps(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


def collect(updates, n):
    """Replay a stream into the positional result list run_sweep builds."""
    results = [None] * n
    seen = []
    for update in updates:
        seen.append(update)
        for i in update.positions:
            results[i] = update.result
    return results, seen


class TestStreamSweep:
    def test_streamed_matches_barrier_byte_identical(self):
        barrier = run_sweep(tiny_jobs(), jobs=1, cache=False)
        streamed, _ = collect(stream_sweep(tiny_jobs(), jobs=1, cache=False), 3)
        assert dumps(streamed) == dumps(barrier)

    def test_streamed_matches_barrier_on_kept_children(self):
        barrier = run_sweep(tiny_jobs(), jobs=1, cache=False)
        with LocalProcessBackend(3) as backend:
            streamed, seen = collect(
                stream_sweep(tiny_jobs(), backend=backend, cache=False), 3
            )
        assert dumps(streamed) == dumps(barrier)
        assert sorted(u.completed for u in seen) == [1, 2, 3]
        assert all(u.total == 3 for u in seen)
        assert all(u.source == "run" for u in seen)

    def test_cache_hits_stream_first(self, tmp_path):
        store = ResultCache(tmp_path)
        run_sweep(tiny_jobs()[:2], jobs=1, cache=store)  # warm 2 of 3 cells
        _, seen = collect(stream_sweep(tiny_jobs(), jobs=1, cache=store), 3)
        assert [u.source for u in seen] == ["cache", "cache", "run"]
        assert [u.completed for u in seen] == [1, 2, 3]
        # The simulated cell was written back before its update.
        assert store.misses == 3  # 2 from the warm-up + 1 here
        assert len(store.entries()) == 3

    def test_duplicate_cells_share_one_update(self):
        specs = tiny_jobs() + [tiny_jobs()[0]]  # duplicate first cell
        results, seen = collect(stream_sweep(specs, jobs=1, cache=False), 4)
        assert len(seen) == 3  # distinct cells only
        assert all(r is not None for r in results)
        dup = next(u for u in seen if len(u.positions) == 2)
        assert dup.positions == (0, 3)
        assert dumps([results[0]]) == dumps([results[3]])

    def test_backend_error_raises_from_iterator(self, monkeypatch):
        def boom(_job):
            raise RuntimeError("cell exploded")

        monkeypatch.setattr(
            "repro.experiments.orchestrator._execute_job", boom
        )
        with pytest.raises(RuntimeError, match="cell exploded"):
            list(stream_sweep(tiny_jobs()[:1], jobs=1, cache=False))

    def test_error_after_partial_results_preserves_them(self, monkeypatch):
        """Cells finished before the failure are delivered (and cached)."""
        from repro.experiments import orchestrator as orch

        real = orch._execute_job
        calls = []

        def second_fails(job):
            calls.append(job)
            if len(calls) >= 2:
                raise RuntimeError("second cell exploded")
            return real(job)

        monkeypatch.setattr(
            "repro.experiments.orchestrator._execute_job", second_fails
        )
        seen = []
        with pytest.raises(RuntimeError, match="second cell exploded"):
            for update in stream_sweep(tiny_jobs(), jobs=1, cache=False):
                seen.append(update)
        assert len(seen) == 1
        assert seen[0].source == "run"

    def test_progress_callback_equivalence(self, tmp_path):
        """run_sweep's progress contract is exactly a replay of the
        stream: same cells, same sources, same order (two identically
        warmed caches, so both paths see one hit and two misses)."""
        store_a = ResultCache(tmp_path / "a")
        store_b = ResultCache(tmp_path / "b")
        run_sweep(tiny_jobs()[:1], jobs=1, cache=store_a)
        run_sweep(tiny_jobs()[:1], jobs=1, cache=store_b)
        events = []
        run_sweep(tiny_jobs(), jobs=1, cache=store_a,
                  progress=lambda job, src: events.append((job.label(), src)))
        _, seen = collect(stream_sweep(tiny_jobs(), jobs=1, cache=store_b), 3)
        assert events == [(u.job.label(), u.source) for u in seen]
        assert [src for _label, src in events] == ["cache", "run", "run"]
