"""Tests for the pluggable sweep execution backends.

Covers which backend a sweep runs on (the one handed to it, else a
local one it builds and closes), the env knobs, listen addresses, the
cell queue both backends dispatch from (trace-key groups, requeues,
close, order by learned cell costs), the local backend's kept cell
children (byte-identical results, reuse across sweeps, one synthesis
per trace key, failures), and the distributed backend's TCP/JSON
protocol with dial-in workers: shared caches, worker failure
reporting, requeueing cells from dead connections, quarantine, and
preemption.
"""

import io
import json
import multiprocessing
import os
import select
import signal
import socket
import struct
import threading
import time

import pytest

from collections import OrderedDict

from repro.experiments import backends, orchestrator, runner
from repro.experiments import worker as worker_mod
from repro.experiments.backends import (
    CellCosts,
    CellPolicy,
    CellQueue,
    DistributedBackend,
    LocalProcessBackend,
    SweepBackend,
    parse_address,
)
from repro.experiments.orchestrator import ResultCache, SweepJob, run_sweep

R = 120  # tiny traces: these tests check plumbing, not magnitudes


def tiny_jobs():
    return [
        SweepJob.make("bc", "Base-CSSD", records_per_thread=R),
        SweepJob.make("bc", "DRAM-Only", records_per_thread=R),
        SweepJob.make("ycsb", "SkyByte-Full", records_per_thread=R),
    ]


def dumps(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


def cell(name, workload, variant="Base-CSSD", **params):
    """A pending ``(key, SweepJob)`` cell under a readable key."""
    params.setdefault("records_per_thread", R)
    return (name, SweepJob.make(workload, variant, **params))


def names(queue, *runners):
    """The cell key each runner takes, one take after the other."""
    return [queue.take(r)[0] for r in runners]


def measured(cells, **seconds):
    """A cost memory holding ``seconds`` for the named cells."""
    costs = CellCosts()
    for name, job in cells:
        if name in seconds:
            costs.record(job, seconds[name])
    return costs


def tail_cells():
    """Five keys in submit order; the heaviest, tpcc (4 s), comes last."""
    return [cell("a1", "bc"), cell("a2", "bc", "DRAM-Only"),
            cell("b1", "ycsb"), cell("d1", "dlrm"), cell("e1", "srad"),
            cell("c1", "tpcc"), cell("c2", "tpcc", "DRAM-Only")]


TAIL_COSTS = dict(a1=1, a2=1, b1=1, d1=2, e1=2, c1=2, c2=2)


class TestCellQueue:
    def test_own_key_then_a_free_key_then_the_largest_group(self):
        queue = CellQueue([
            cell("a1", "bc"), cell("a2", "bc", "SkyByte-Full"),
            cell("a3", "bc", "DRAM-Only"), cell("b1", "ycsb"),
            cell("c1", "tpcc"), cell("c2", "tpcc", "SkyByte-Full"),
        ])
        # Fresh runners take the first key no busy runner holds.
        assert names(queue, "x", "y", "z") == ["a1", "b1", "c1"]
        # y's key is used up and every other key is held: it takes from
        # the group with the most pending cells.  x and z keep theirs.
        assert names(queue, "y", "x", "z") == ["a2", "a3", "c2"]
        assert len(queue) == 0

    def test_cells_of_a_key_share_one_trace_key(self):
        """Variants at 8 and 24 threads share a key; a workload that
        partitions its footprint is keyed by thread count too."""
        key = runner.cell_trace_key
        assert key("bc", "Base-CSSD", records_per_thread=R) == key(
            "bc", "SkyByte-Full", records_per_thread=R)
        assert key("radix", "Base-CSSD", records_per_thread=R) != key(
            "radix", "SkyByte-Full", records_per_thread=R)
        assert key("bc", "Base-CSSD", records_per_thread=R, seed=1) != key(
            "bc", "Base-CSSD", records_per_thread=R, seed=2)
        assert key("x", "SkyByte-Full", trace="x.sbt") is None

    def test_replay_cells_go_in_plain_fifo(self):
        queue = CellQueue([
            cell("r1", "replay", trace="r.sbt"), cell("a1", "bc"),
            cell("r2", "replay", trace="r.sbt"), cell("a2", "bc", "DRAM-Only"),
        ])
        # A keyless cell is never held and never a runner's own key.
        assert names(queue, "x", "y", "x", "y") == ["r1", "a1", "r2", "a2"]

    def test_a_failed_cell_returns_to_its_group_for_another_runner(self):
        a1, a2, b1 = (cell("a1", "bc"), cell("a2", "bc", "SkyByte-Full"),
                      cell("b1", "ycsb"))
        queue = CellQueue([a1, a2, b1])
        assert names(queue, "x") == ["a1"]
        queue.put(a1, failed_on="x")
        # x moves on to the rest of its group; the failed cell keeps its
        # place at the head of the group for the next runner.
        assert names(queue, "x", "y", "y") == ["a2", "b1", "a1"]

    def test_a_lone_runner_retries_its_failed_cell(self):
        a1 = cell("a1", "bc")
        queue = CellQueue([a1])
        assert names(queue, "x") == ["a1"]
        queue.put(a1, failed_on="x")
        assert names(queue, "x") == ["a1"]

    def test_a_runner_put_back_unrun_keeps_submit_order(self):
        cells = [cell("a1", "bc"), cell("a2", "bc", "SkyByte-Full")]
        queue = CellQueue(cells)
        taken = [queue.take("x"), queue.take("x")]
        queue.put(taken[1])
        queue.put(taken[0])
        assert names(queue, "y", "y") == ["a1", "a2"]

    def test_close_wakes_every_waiting_runner_with_none(self):
        queue = CellQueue([])
        got = []
        waiters = [threading.Thread(target=lambda r=r: got.append(
            queue.take(r))) for r in ("x", "y", "z")]
        for thread in waiters:
            thread.start()
        deadline = time.monotonic() + 10
        while len(queue._waiting) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        queue.close()
        for thread in waiters:
            thread.join(timeout=5)
        assert got == [None, None, None]
        assert not any(thread.is_alive() for thread in waiters)

    def test_a_put_wakes_a_waiting_runner(self):
        a1 = cell("a1", "bc")
        queue = CellQueue([a1])
        queue.take("x")
        got = []
        waiter = threading.Thread(target=lambda: got.append(queue.take("y")))
        waiter.start()
        queue.put(a1, failed_on="x")
        waiter.join(timeout=5)
        assert got == [a1]


class TestCostDispatch:
    def test_the_cheapest_cell_of_a_key_goes_first(self):
        cells = [cell("a1", "bc"), cell("a2", "bc", "SkyByte-Full"),
                 cell("a3", "bc", "DRAM-Only")]
        queue = CellQueue(cells, measured(cells, a1=3, a2=2, a3=1))
        assert names(queue, "x", "x", "x") == ["a3", "a2", "a1"]

    def test_submit_order_then_the_heaviest_free_key_at_the_tail(self):
        """11 s pending: x and y take the first free keys in submit
        order.  When z comes, 9 s is pending and three runners are busy
        or waiting: 9 <= 3 x 4, so z takes the heaviest free key, tpcc,
        before the lighter dlrm and srad ahead of it."""
        cells = tail_cells()
        queue = CellQueue(cells, measured(cells, **TAIL_COSTS))
        x, y = queue.take("x"), queue.take("y")
        assert [x[0], y[0]] == ["a1", "b1"]
        assert names(queue, "z") == ["c1"]

    def test_an_unknown_cost_keeps_submit_order(self):
        """srad/DRAM-Only was never measured, so the sweep dispatches as
        with no costs: bc keeps submit order though a1 is the dearer,
        and with no tail rule z takes dlrm, the next free key."""
        cells = tail_cells() + [cell("e2", "srad", "DRAM-Only")]
        queue = CellQueue(cells, measured(cells, **dict(TAIL_COSTS, a1=3)))
        x, y = queue.take("x"), queue.take("y")
        assert [x[0], y[0]] == ["a1", "b1"]
        assert names(queue, "z", "w", "x") == ["d1", "e1", "a2"]
        assert names(CellQueue(cells), "x", "x") == ["a1", "a2"]

    def test_a_failed_cell_is_still_skipped_for_its_runner(self):
        a1, a2 = cell("a1", "bc"), cell("a2", "bc", "DRAM-Only")
        queue = CellQueue([a1, a2], measured([a1, a2], a1=1, a2=2))
        assert names(queue, "x") == ["a1"]
        queue.put(a1, failed_on="x")
        assert names(queue, "x", "y") == ["a2", "a1"]

    def test_a_result_records_its_fastest_hand_out_seconds(self):
        costs = CellCosts()
        for seed, pause in ((1, 0.05), (2, 0.0), (3, 0.05)):
            job = cell("a1", "bc", seed=seed)
            queue = CellQueue([job], costs)
            queue.take("x")
            time.sleep(pause)
            queue.finished("a1")
            if seed == 1:
                assert costs.get(job[1]) >= 0.05
        # One entry for every seed of the cell, at its fastest run.
        assert len(costs) == 1
        assert costs.get(cell("a1", "bc", seed=9)[1]) < 0.05

    def test_a_failed_attempt_records_nothing(self):
        costs = CellCosts()
        a1 = cell("a1", "bc")
        queue = CellQueue([a1], costs)
        queue.take("x")
        queue.put(a1, failed_on="x")
        assert len(costs) == 0

    def test_the_memory_is_bounded(self, monkeypatch):
        monkeypatch.setattr(backends, "COST_MEMORY", 3)
        costs = CellCosts()
        jobs = [cell(w, w)[1] for w in ("bc", "ycsb", "tpcc", "dlrm")]
        for seconds, job in enumerate(jobs):
            costs.record(job, float(seconds))
        assert len(costs) == 3
        assert costs.get(jobs[0]) is None
        costs.record(jobs[1], 5.0)  # measured again: now the newest
        costs.record(jobs[0], 1.0)
        assert [costs.get(job) for job in jobs] == [1.0, 1.0, None, 3.0]


class TestResolution:
    """A sweep runs on the backend its caller hands it, else on a local
    backend it builds and closes."""

    def test_default_is_local(self, monkeypatch):
        built = []

        class Spy(LocalProcessBackend):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(orchestrator, "LocalProcessBackend", Spy)
        monkeypatch.setenv(backends.JOBS_ENV, "1")
        run_sweep(tiny_jobs()[:1])
        assert [b.describe() for b in built] == ["local[jobs=1]"]
        assert built[0]._closed

    def test_instance_passes_through(self):
        """A handed backend runs the sweep and stays open for reuse."""
        ran = []

        class Recording(LocalProcessBackend):
            def run(self, pending, finish):
                ran.append(len(pending))
                super().run(pending, finish)

        with Recording(1) as backend:
            run_sweep(tiny_jobs()[:1], backend=backend)
            assert ran == [1] and not backend._closed
            run_sweep(tiny_jobs()[1:2], backend=backend)
        assert ran == [1, 1]

    def test_listen_address_is_in_describe(self):
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            host, port = backend.address
            assert host == "127.0.0.1" and port > 0
            # perfbench parses ``listen=H:P`` out of this text.
            assert backend.describe() == (
                f"distributed[listen={host}:{port},"
                f"{backend.policy.describe()}]"
            )

    def test_distributed_without_workers_raises(self):
        """Without a listen address there is nowhere for workers to dial."""
        with pytest.raises(ValueError, match="--listen.*worker --connect"):
            DistributedBackend()

    def test_a_sweep_keeps_the_backends_policy(self):
        policy = CellPolicy(cell_timeout=1.5, retry_budget=7)
        with DistributedBackend(listen="127.0.0.1:0",
                                policy=policy) as backend:
            assert backend.policy is policy
            with pytest.raises(TypeError, match="policy"):
                run_sweep([], backend=backend, policy=CellPolicy())
            assert backend.policy is policy

    def test_a_width_is_not_a_sweep_setting(self):
        """The backend object is, and only by keyword."""
        with pytest.raises(TypeError, match="jobs"):
            run_sweep(tiny_jobs()[:1], jobs=2)
        with pytest.raises(TypeError):
            run_sweep(tiny_jobs()[:1], LocalProcessBackend(1))

    def test_parse_address(self):
        assert parse_address("host:8") == ("host", 8)
        assert parse_address("7001") == ("127.0.0.1", 7001)
        assert parse_address(("", 9)) == ("127.0.0.1", 9)
        assert parse_address("h:0") == ("h", 0)
        assert parse_address("h:65535") == ("h", 65535)
        for bad in ("no-port", "host:", "127.0.0.1:99999", "127.0.0.1:70000",
                    ("h", 65536), ("h", -1)):
            with pytest.raises(ValueError, match="bad address"):
                parse_address(bad)

    def test_describe(self):
        assert LocalProcessBackend(4).describe() == "local[jobs=4]"
        assert SweepBackend().describe() == "abstract"


class TestCellPolicy:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(backends.CELL_TIMEOUT_ENV, raising=False)
        monkeypatch.delenv(backends.RETRY_BUDGET_ENV, raising=False)
        policy = CellPolicy.from_env()
        assert policy.cell_timeout is None
        assert policy.retry_budget == 3
        assert policy.quarantine_after == 3
        assert policy.describe() == "timeout=inf,budget=3"

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(backends.CELL_TIMEOUT_ENV, "2.5")
        monkeypatch.setenv(backends.RETRY_BUDGET_ENV, "5")
        policy = CellPolicy.from_env()
        assert policy.cell_timeout == 2.5
        assert policy.retry_budget == 5
        assert policy.describe() == "timeout=2.5s,budget=5"

    def test_zero_timeout_means_unlimited(self, monkeypatch):
        monkeypatch.setenv(backends.CELL_TIMEOUT_ENV, "0")
        assert CellPolicy.from_env().cell_timeout is None
        assert CellPolicy(cell_timeout=-1.0).cell_timeout is None

    @pytest.mark.parametrize("variable, value", [
        ("REPRO_CELL_TIMEOUT", "soon"), ("REPRO_CELL_TIMEOUT", "-1"),
        ("REPRO_CELL_TIMEOUT", "nan"), ("REPRO_RETRY_BUDGET", "many"),
        ("REPRO_RETRY_BUDGET", "0"), ("REPRO_RETRY_BUDGET", "2.5"),
    ])
    def test_garbage_env_is_rejected_naming_it(self, monkeypatch, variable,
                                               value):
        """Garbage must not quietly become unlimited, 3 or 1."""
        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError, match=variable):
            CellPolicy.from_env()

    def test_given_values_beat_the_env(self, monkeypatch):
        monkeypatch.setenv(backends.CELL_TIMEOUT_ENV, "2.5")
        monkeypatch.setenv(backends.RETRY_BUDGET_ENV, "5")
        policy = CellPolicy.from_env(cell_timeout=0, retry_budget=2)
        assert (policy.cell_timeout, policy.retry_budget) == (None, 2)
        assert policy.quarantine_after == 2
        assert CellPolicy.from_env(retry_budget=4).cell_timeout == 2.5

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="retry_budget"):
            CellPolicy(retry_budget=0)

    def test_explicit_quarantine_kept(self):
        assert CellPolicy(retry_budget=5, quarantine_after=2).quarantine_after == 2


class TestJobs:
    def test_repro_jobs_sets_the_default(self, monkeypatch):
        monkeypatch.setenv(backends.JOBS_ENV, "3")
        assert backends.default_jobs() == 3
        assert LocalProcessBackend().jobs == 3
        monkeypatch.delenv(backends.JOBS_ENV)
        assert backends.default_jobs() == 1

    @pytest.mark.parametrize("value", ["0", "-2", "two", "1.5"])
    def test_bad_repro_jobs_is_rejected_naming_it(self, monkeypatch, value):
        """It sets how many cell processes a backend keeps: garbage must
        not quietly turn into one."""
        monkeypatch.setenv(backends.JOBS_ENV, value)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            backends.default_jobs()
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            run_sweep(tiny_jobs()[:1])

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            LocalProcessBackend(jobs)


@pytest.mark.skipif(worker_mod._FORK_CTX is None,
                    reason="cell children need the fork start method")
class TestKeptChildren:
    def test_matches_serial_byte_identical(self):
        serial = run_sweep(tiny_jobs())
        with LocalProcessBackend(3) as backend:
            children = run_sweep(tiny_jobs(), backend=backend)
        assert dumps(serial) == dumps(children)

    def test_each_trace_key_is_synthesized_in_one_child(
            self, monkeypatch, tmp_path):
        """Two children, two workloads x two variants: each child takes
        one workload's cells, so each trace key is synthesized in
        exactly one child, and the results match in process."""
        log = tmp_path / "syntheses"
        real_source = runner._trace_source

        def counted_source(workload, scale, seed):
            generate, mlp, partitioned = real_source(workload, scale, seed)

            def counted(threads, records, tids):
                with open(log, "a") as handle:
                    handle.write(f"{os.getpid()} {workload}\n")
                return generate(threads, records, tids)

            return counted, mlp, partitioned

        # Forked children inherit the wrapper and an empty memo.
        monkeypatch.setattr(runner, "_trace_source", counted_source)
        monkeypatch.setattr(runner, "_TRACE_MEMO", OrderedDict())
        records = R + 7  # a key no other test has synthesized
        jobs = [SweepJob.make(w, v, records_per_thread=records)
                for w in ("bc", "ycsb")
                for v in ("Base-CSSD", "SkyByte-Full")]
        with LocalProcessBackend(2) as backend:
            children = run_sweep(jobs, backend=backend)
        pids_by_key = {}
        for line in log.read_text().splitlines():
            pid, workload = line.split()
            pids_by_key.setdefault(workload, set()).add(int(pid))
        assert sorted(pids_by_key) == ["bc", "ycsb"]
        assert all(len(pids) == 1 for pids in pids_by_key.values())
        assert pids_by_key["bc"] != pids_by_key["ycsb"]
        assert os.getpid() not in set.union(*pids_by_key.values())
        log.unlink()
        assert dumps(children) == dumps(run_sweep(jobs))

    def test_uses_cache(self, tmp_path):
        store = ResultCache(tmp_path)
        with LocalProcessBackend(2) as backend:
            run_sweep(tiny_jobs(), cache=store, backend=backend)
            assert store.misses == 3
            run_sweep(tiny_jobs(), cache=store, backend=backend)
            assert store.hits == 3

    def test_children_are_kept_across_sweeps(self):
        """Two sweeps on one backend run on the same two children, so
        the memos a child built for the first serve the second."""
        serial = run_sweep(tiny_jobs())
        with LocalProcessBackend(2) as backend:
            first = run_sweep(tiny_jobs(), backend=backend)
            pids = sorted(child.pid for child in backend._children)
            second = run_sweep(tiny_jobs(), backend=backend)
            assert sorted(child.pid for child in backend._children) == pids
        assert len(set(pids)) == 2 and os.getpid() not in pids
        assert dumps(first) == dumps(serial) == dumps(second)
        assert multiprocessing.active_children() == []

    def test_a_reused_backend_runs_cheapest_first_by_learned_costs(self):
        """The second sweep, at a new seed, is dispatched by the costs
        the first measured: its first result is the cheapest cell of its
        trace key, and its results match in process."""
        def grid(seed):
            return [SweepJob.make(w, v, records_per_thread=R, seed=seed)
                    for w in ("bc", "ycsb")
                    for v in ("Base-CSSD", "SkyByte-Full", "DRAM-Only")]

        with LocalProcessBackend(2) as backend:
            run_sweep(grid(1), backend=backend)
            costs = {job: backend.costs.get(job) for job in grid(2)}
            assert None not in costs.values()
            order = []
            results = run_sweep(grid(2), backend=backend,
                                on_update=lambda u: order.append(u.job))
        assert dumps(results) == dumps(run_sweep(grid(2)))

        def trace_key(job):
            return runner.cell_trace_key(job.workload, job.variant,
                                         **job.kwargs())

        first = order[0]
        assert costs[first] == min(cost for job, cost in costs.items()
                                   if trace_key(job) == trace_key(first))

    def test_a_backend_it_built_is_closed_on_return(self, monkeypatch):
        """A sweep given no backend builds one of REPRO_JOBS children
        and leaves none of them alive, however it ends."""
        built = []

        class Counted(worker_mod.CellChild):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(worker_mod, "CellChild", Counted)
        monkeypatch.setenv(backends.JOBS_ENV, "2")
        run_sweep(tiny_jobs())
        assert len(built) == 2
        assert multiprocessing.active_children() == []
        stream = orchestrator.stream_sweep(tiny_jobs())
        next(stream)
        stream.close()  # abandoned mid-sweep
        assert len(built) == 4
        assert multiprocessing.active_children() == []

    def test_a_raising_cell_fails_the_sweep_with_its_traceback(
            self, monkeypatch):
        real_execute = worker_mod._execute_job

        def execute(job):
            if job.workload == "ycsb":
                raise RuntimeError("boom in the child")
            return real_execute(job)

        monkeypatch.setattr(worker_mod, "_execute_job", execute)
        with LocalProcessBackend(2) as backend:
            with pytest.raises(RuntimeError, match="(?s)Traceback.*boom"):
                run_sweep(tiny_jobs(), backend=backend)
            assert backend.costs.get(tiny_jobs()[2]) is None

    def test_a_killed_child_fails_the_sweep_and_is_replaced(
            self, monkeypatch, tmp_path):
        real_execute = worker_mod._execute_job
        killed = tmp_path / "killed"

        def execute(job):
            if job.variant == "SkyByte-Full":
                killed.write_text(str(os.getpid()))
                os.kill(os.getpid(), signal.SIGKILL)
            return real_execute(job)

        monkeypatch.setattr(worker_mod, "_execute_job", execute)
        survivors = tiny_jobs()[:2]
        with LocalProcessBackend(2) as backend:
            with pytest.raises(RuntimeError, match="exitcode -9"):
                run_sweep(tiny_jobs(), backend=backend)
            results = run_sweep(survivors, backend=backend)
            pids = [child.pid for child in backend._children]
            assert None not in pids and int(killed.read_text()) not in pids
        assert dumps(results) == dumps(run_sweep(survivors))

    def test_a_closed_backend_runs_no_more_cells(self):
        backend = LocalProcessBackend(2)
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            run_sweep(tiny_jobs(), backend=backend)
        assert multiprocessing.active_children() == []


def start_inprocess_worker(address, cache=None):
    """A real worker (the module the CLI runs), dialing in on a thread."""

    def serve():
        sock = socket.create_connection(address)
        with sock:
            worker_mod.serve_connection(sock, cache)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


class TestDistributedBackend:
    def test_listen_mode_matches_serial(self):
        serial = run_sweep(tiny_jobs())
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            workers = [start_inprocess_worker(backend.address) for _ in range(2)]
            results = run_sweep(tiny_jobs(), backend=backend)
        assert dumps(results) == dumps(serial)
        for thread in workers:
            thread.join(timeout=5)

    def test_dedup_and_order_preserved(self, tmp_path):
        store = ResultCache(tmp_path)
        specs = tiny_jobs() + [tiny_jobs()[0]]  # duplicate first cell
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            start_inprocess_worker(backend.address)
            results = run_sweep(specs, cache=store, backend=backend)
        assert [r.workload for r in results] == ["bc", "bc", "ycsb", "bc"]
        assert dumps([results[0]]) == dumps([results[3]])
        assert store.misses == 3  # the duplicate never crossed the wire

    def test_workers_share_coordinator_cache(self, tmp_path):
        """A cell cached by a local sweep is served, not re-simulated,
        when the worker points at the same cache directory."""
        run_sweep(tiny_jobs(), cache=ResultCache(tmp_path))
        worker_store = ResultCache(tmp_path)
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            start_inprocess_worker(backend.address, cache=worker_store)
            results = run_sweep(tiny_jobs(), backend=backend)
        assert worker_store.hits == 3
        assert worker_store.misses == 0
        assert len(backend.costs) == 0  # a cache answer is no cost
        assert dumps(results) == dumps(run_sweep(tiny_jobs()))

    def test_a_listener_runs_cheapest_first_by_learned_costs(self):
        """Two sweeps on one listener, each served by one dial-in
        worker (a sweep's end sends its workers away): the second, at a
        new seed, goes out by the costs the first measured, cheapest
        first."""
        def grid(seed):
            return [SweepJob.make("bc", v, records_per_thread=R, seed=seed)
                    for v in ("Base-CSSD", "SkyByte-Full", "DRAM-Only")]

        with DistributedBackend(listen="127.0.0.1:0") as backend:
            workers = [start_inprocess_worker(backend.address)]
            run_sweep(grid(1), backend=backend)
            costs = {job: backend.costs.get(job) for job in grid(2)}
            assert None not in costs.values()
            order = []
            workers.append(start_inprocess_worker(backend.address))
            results = run_sweep(grid(2), backend=backend,
                                on_update=lambda u: order.append(u.job))
        for worker in workers:
            worker.join(timeout=5)
        assert dumps(results) == dumps(run_sweep(grid(2)))
        assert order == sorted(grid(2), key=costs.__getitem__)

    def test_worker_cell_failure_raises(self):
        with DistributedBackend(listen="127.0.0.1:0") as backend:

            def bad_worker():
                sock = socket.create_connection(backend.address)
                with sock:
                    rfile = sock.makefile("r", encoding="utf-8")
                    backends.send_msg(
                        sock,
                        {"type": "hello", "version": backends.PROTOCOL_VERSION},
                    )
                    while True:
                        msg = backends.recv_msg(rfile)
                        if msg is None or msg.get("type") != "job":
                            return
                        backends.send_msg(
                            sock,
                            {"type": "result", "id": msg["id"],
                             "ok": False, "error": "boom"},
                        )

            threading.Thread(target=bad_worker, daemon=True).start()
            with pytest.raises(RuntimeError, match="boom"):
                run_sweep(tiny_jobs()[:1], backend=backend)
            assert len(backend.costs) == 0  # failed attempts are no cost

    def test_dead_worker_requeues_cell(self):
        """A connection dying mid-cell hands the cell to a survivor."""
        with DistributedBackend(listen="127.0.0.1:0") as backend:

            def flaky_worker():
                sock = socket.create_connection(backend.address)
                rfile = sock.makefile("r", encoding="utf-8")
                backends.send_msg(
                    sock, {"type": "hello", "version": backends.PROTOCOL_VERSION}
                )
                backends.recv_msg(rfile)  # accept one cell...
                sock.close()  # ...and die without answering

            threading.Thread(target=flaky_worker, daemon=True).start()
            time.sleep(0.3)  # let the flaky worker grab a cell first
            start_inprocess_worker(backend.address)
            results = run_sweep(tiny_jobs(), backend=backend)
        assert dumps(results) == dumps(run_sweep(tiny_jobs()))

    def test_cell_timeout_retries_on_another_worker(self):
        """An attempt exceeding the cell timeout is abandoned and the
        cell retried on a live worker, within budget."""
        policy = CellPolicy(cell_timeout=0.5, retry_budget=3)
        with DistributedBackend(listen="127.0.0.1:0", policy=policy) as backend:
            stalled = threading.Event()

            def stalling_worker():
                sock = socket.create_connection(backend.address)
                rfile = sock.makefile("r", encoding="utf-8")
                backends.send_msg(
                    sock, {"type": "hello", "version": backends.PROTOCOL_VERSION}
                )
                backends.recv_msg(rfile)  # take the cell...
                stalled.set()
                time.sleep(30)  # ...and never answer (hung host)
                sock.close()

            def good_worker_after_stall():
                # Join only once the staller owns the cell, so the
                # retry provably lands on a different worker.
                assert stalled.wait(timeout=20)
                start_inprocess_worker(backend.address)

            threading.Thread(target=stalling_worker, daemon=True).start()
            threading.Thread(target=good_worker_after_stall,
                             daemon=True).start()
            results = run_sweep(tiny_jobs()[:1], backend=backend)
            assert stalled.is_set()
        assert dumps(results) == dumps(
            run_sweep(tiny_jobs()[:1])
        )

    def test_repeatedly_failing_worker_quarantined(self):
        """quarantine_after failures on one connection stop it from
        eating the whole retry budget; a healthy worker finishes."""
        policy = CellPolicy(retry_budget=10, quarantine_after=2)
        with DistributedBackend(listen="127.0.0.1:0", policy=policy) as backend:
            jobs_seen = []
            got_bye = threading.Event()

            def bad_worker():
                sock = socket.create_connection(backend.address)
                rfile = sock.makefile("r", encoding="utf-8")
                backends.send_msg(
                    sock, {"type": "hello", "version": backends.PROTOCOL_VERSION}
                )
                while True:
                    msg = backends.recv_msg(rfile)
                    if msg is None or msg.get("type") != "job":
                        got_bye.set()  # dismissed by the quarantine
                        return
                    jobs_seen.append(msg["key"])
                    backends.send_msg(
                        sock,
                        {"type": "result", "id": msg["id"],
                         "ok": False, "error": "flaky host"},
                    )
                    if len(jobs_seen) == 2:
                        # Only now bring in the healthy worker, so every
                        # pre-quarantine attempt hit this flaky one.
                        start_inprocess_worker(backend.address)

            threading.Thread(target=bad_worker, daemon=True).start()
            results = run_sweep(tiny_jobs()[:1], backend=backend)
            assert got_bye.wait(timeout=10)
        # Exactly quarantine_after attempts reached the flaky worker,
        # and the budget (10) was nowhere near exhausted.
        assert len(jobs_seen) == 2
        assert dumps(results) == dumps(
            run_sweep(tiny_jobs()[:1])
        )

    def test_a_sweep_whose_workers_are_all_quarantined_fails(self):
        """Two redialing workers that fail every cell are quarantined
        before any cell spends its budget: the sweep fails naming every
        unfinished cell's history instead of dismissing them forever."""
        policy = CellPolicy(retry_budget=10, quarantine_after=3)
        jobs = [SweepJob.make(w, v, records_per_thread=R)
                for w in ("bc", "ycsb", "tpcc")
                for v in ("Base-CSSD", "SkyByte-Full")]
        stop = threading.Event()

        def failing_worker(address, pid):
            while not stop.is_set():  # redials like ``repro worker``
                try:
                    sock = socket.create_connection(address)
                except OSError:
                    return
                with sock:
                    rfile = sock.makefile("r", encoding="utf-8")
                    try:
                        backends.send_msg(sock, {
                            "type": "hello", "pid": pid,
                            "version": backends.PROTOCOL_VERSION})
                        while True:
                            msg = backends.recv_msg(rfile)
                            if msg is None or msg.get("type") != "job":
                                break
                            backends.send_msg(sock, {
                                "type": "result", "id": msg["id"],
                                "ok": False, "error": "always fails"})
                    except OSError:
                        pass

        outcome = []

        def sweep(backend):
            try:
                run_sweep(jobs, backend=backend)
                outcome.append(None)
            except RuntimeError as exc:
                outcome.append(str(exc))

        with DistributedBackend(listen="127.0.0.1:0", policy=policy) as backend:
            for pid in (101, 102):
                threading.Thread(target=failing_worker,
                                 args=(backend.address, pid),
                                 daemon=True).start()
            driver = threading.Thread(target=sweep, args=(backend,),
                                      daemon=True)
            driver.start()
            driver.join(timeout=30)
            stop.set()
            assert not driver.is_alive(), "the sweep hung"
        message = outcome[0]
        assert message.startswith("every worker of this sweep is quarantined")
        assert "#pid101" in message and "#pid102" in message
        for job in jobs:
            assert f"({job.label()}): " in message
        assert "always fails" in message

    def test_the_end_of_a_sweep_sends_every_idle_worker_bye(self):
        """Closing the queue wakes every connection waiting for a cell,
        and each dismisses its worker with ``bye``."""
        last_message = []

        def worker(address):
            sock = socket.create_connection(address)
            with sock:
                rfile = sock.makefile("r", encoding="utf-8")
                backends.send_msg(sock, {"type": "hello",
                                         "version": backends.PROTOCOL_VERSION})
                while True:
                    msg = backends.recv_msg(rfile)
                    if msg is None or msg.get("type") != "job":
                        last_message.append(msg and msg.get("type"))
                        return
                    result = orchestrator._execute_job(
                        backends.job_from_wire(msg))
                    time.sleep(0.3)  # the others are waiting meanwhile
                    backends.send_msg(sock, {
                        "type": "result", "id": msg["id"], "ok": True,
                        "result": result.to_dict()})

        from _worker_utils import wait_for_dial_ins

        with DistributedBackend(listen="127.0.0.1:0") as backend:
            threads = [threading.Thread(target=worker,
                                        args=(backend.address,), daemon=True)
                       for _ in range(3)]
            for thread in threads:
                thread.start()
            wait_for_dial_ins(backend.address[1], 3)
            results = run_sweep(tiny_jobs()[:1], backend=backend)
            for thread in threads:
                thread.join(timeout=10)
        assert last_message == ["bye", "bye", "bye"]
        assert dumps(results) == dumps(
            run_sweep(tiny_jobs()[:1]))

    def test_all_attempts_dead_exhausts_retry_budget(self):
        """A worker that keeps dying mid-cell (and dialing back in) burns
        the cell's retry budget, and the error carries the history."""
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            stop = threading.Event()

            address = backend.address

            def doomed_worker():
                while not stop.is_set():
                    try:
                        sock = socket.create_connection(address)
                        rfile = sock.makefile("r", encoding="utf-8")
                        backends.send_msg(sock, {
                            "type": "hello",
                            "version": backends.PROTOCOL_VERSION,
                        })
                        backends.recv_msg(rfile)  # take a cell
                    except OSError:
                        return  # the sweep is over and the listener gone
                    rfile.close()  # really close the fd: the coordinator
                    sock.close()  # must see EOF, not a half-open socket

            threading.Thread(target=doomed_worker, daemon=True).start()
            try:
                with pytest.raises(
                    RuntimeError, match="retry budget 3 exhausted.*mid-cell"
                ):
                    run_sweep(tiny_jobs()[:1], backend=backend)
            finally:
                stop.set()

    def test_protocol_version_mismatch_rejected(self):
        """An ancient worker is hung up on before it gets a cell, and the
        sweep goes on waiting: a good worker then finishes it."""
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            rejected = threading.Event()
            seen = []

            def ancient_worker():
                sock = socket.create_connection(backend.address)
                with sock:
                    backends.send_msg(sock, {"type": "hello", "version": -1})
                    sock.settimeout(10)
                    seen.append(sock.recv(4096))  # EOF: b""
                rejected.set()

            def good_worker_after_rejection():
                assert rejected.wait(timeout=20)
                start_inprocess_worker(backend.address)

            threading.Thread(target=ancient_worker, daemon=True).start()
            threading.Thread(target=good_worker_after_rejection,
                             daemon=True).start()
            results = run_sweep(tiny_jobs()[:1], backend=backend)
        assert seen == [b""]  # closed without a job or a bye
        assert dumps(results) == dumps(
            run_sweep(tiny_jobs()[:1])
        )

    def test_needs_workers_or_listen(self):
        with pytest.raises(ValueError, match="listen address"):
            DistributedBackend()

    def test_connect_worker_survives_multiple_sweeps(self, spawn_worker):
        """A --connect worker redials after each sweep, so one worker
        serves a whole multi-sweep (e.g. ``figures --listen``) session
        and exits cleanly once the coordinator's listener closes."""
        serial = run_sweep(tiny_jobs())
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            host, port = backend.address
            proc = spawn_worker("--connect", f"{host}:{port}", "--no-cache")
            first = run_sweep(tiny_jobs(), backend=backend)
            second = run_sweep(tiny_jobs(), backend=backend)
        assert dumps(first) == dumps(serial)
        assert dumps(second) == dumps(serial)
        assert proc.wait(timeout=30) == 0  # listener closed -> clean exit
        assert proc.stdout.read().count("served 3 cell(s)") == 2

    def test_connect_worker_exits_cleanly_on_reset_before_first_sweep(self):
        """A coordinator that accepts the dial and then goes away before
        any sweep resets the connection under the worker's hello: the
        worker logs it and exits 0, like a refused redial."""
        server = socket.create_server(("127.0.0.1", 0))
        host, port = server.getsockname()[:2]

        def accept_then_reset():
            sock, _peer = server.accept()
            select.select([sock], [], [], 10.0)  # the hello has arrived
            # Linger 0: close() sends RST instead of FIN.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
            server.close()

        thread = threading.Thread(target=accept_then_reset, daemon=True)
        thread.start()
        out = io.StringIO()
        assert worker_mod.run_worker(connect=f"{host}:{port}", retries=1,
                                     out=out) == 0
        thread.join(timeout=10)
        assert "served" not in out.getvalue()


class TestWorkerProtocol:
    def _handshake(self):
        coord, worker_side = socket.socketpair()
        thread = threading.Thread(
            target=worker_mod.serve_connection, args=(worker_side,), daemon=True
        )
        thread.start()
        rfile = coord.makefile("r", encoding="utf-8")
        hello = backends.recv_msg(rfile)
        assert hello["type"] == "hello"
        assert hello["version"] == backends.PROTOCOL_VERSION
        return coord, rfile, thread

    def test_bad_cell_reports_error_and_survives(self):
        coord, rfile, thread = self._handshake()
        backends.send_msg(coord, {"type": "job", "id": 1, "workload": "nope",
                                  "variant": "Base-CSSD", "params": {}})
        reply = backends.recv_msg(rfile)
        assert reply["ok"] is False
        assert "unknown workload" in reply["error"]
        # The worker survives a failed cell and serves the next one.
        job = SweepJob.make("bc", "DRAM-Only", records_per_thread=R)
        message = {"type": "job", "id": 2}
        message.update(backends.job_to_wire(job))
        backends.send_msg(coord, message)
        reply = backends.recv_msg(rfile)
        assert reply["ok"] is True
        assert reply["result"]["workload"] == "bc"
        backends.send_msg(coord, {"type": "bye"})
        thread.join(timeout=10)
        coord.close()

    def test_unexpected_message_type_reported(self):
        coord, rfile, thread = self._handshake()
        backends.send_msg(coord, {"type": "gossip", "id": 7})
        reply = backends.recv_msg(rfile)
        assert reply["ok"] is False
        assert "gossip" in reply["error"]
        backends.send_msg(coord, {"type": "bye"})
        thread.join(timeout=10)
        coord.close()

    def test_wire_resolves_records_on_coordinator(self, monkeypatch):
        """A worker host's REPRO_RECORDS must never change what a shipped
        cell simulates: the coordinator resolves it into the wire form."""
        monkeypatch.setenv("REPRO_RECORDS", "77")
        job = SweepJob.make("bc", "Base-CSSD")  # no explicit records
        key_on_coordinator = job.key()
        wire = json.loads(json.dumps(backends.job_to_wire(job)))
        assert wire["params"]["records_per_thread"] == 77
        monkeypatch.setenv("REPRO_RECORDS", "9999")  # the "worker host"
        rebuilt = backends.job_from_wire(wire)
        assert rebuilt.kwargs()["records_per_thread"] == 77
        assert rebuilt.key() == key_on_coordinator

    def test_wire_round_trip_preserves_job(self):
        job = SweepJob.make("ycsb-b", "skybyte-full", records_per_thread=R,
                            ssd_overrides={"prefetch_depth": 0}, seed=7)
        rebuilt = backends.job_from_wire(
            json.loads(json.dumps(backends.job_to_wire(job)))
        )
        assert rebuilt == job
        assert rebuilt.key() == job.key()


@pytest.mark.skipif(worker_mod._FORK_CTX is None,
                    reason="preemption needs the fork start method")
class TestWorkerPreemption:
    """A cell the coordinator gave up on must stop *executing* on the
    worker -- not just stop being awaited (the distributed-path bugfix:
    a timed-out cell used to burn the worker slot to completion)."""

    def _handshake(self, monkeypatch, heartbeat_path, child=None):
        """serve_connection in a thread, with cells that heartbeat
        forever instead of simulating (fork inherits the patch).  Each
        cell appends the pid it runs in to ``<heartbeat_path>.pids``."""
        real_execute = worker_mod._execute_job

        def hanging_execute(job):
            with open(f"{heartbeat_path}.pids", "a") as pids:
                pids.write(f"{os.getpid()}\n")
            if job.workload == "bc":  # the cell under test hangs...
                while True:
                    heartbeat_path.write_text(str(time.monotonic()))
                    time.sleep(0.02)
            return real_execute(job)  # ...any other cell is normal

        monkeypatch.setattr(worker_mod, "_execute_job", hanging_execute)
        coord, worker_side = socket.socketpair()
        thread = threading.Thread(
            target=worker_mod.serve_connection,
            args=(worker_side, None, child), daemon=True,
        )
        thread.start()
        rfile = coord.makefile("r", encoding="utf-8")
        assert backends.recv_msg(rfile)["type"] == "hello"
        return coord, rfile, thread

    @staticmethod
    def _executed_in(heartbeat_path):
        with open(f"{heartbeat_path}.pids") as pids:
            return [int(line) for line in pids]

    def _send_job(self, coord, seq, workload, variant="Base-CSSD"):
        job = SweepJob.make(workload, variant, records_per_thread=R)
        message = {"type": "job", "id": seq, "key": job.key()}
        message.update(backends.job_to_wire(job))
        backends.send_msg(coord, message)

    def _assert_heartbeat_stops(self, path, within=10.0):
        """The hanging child beats every 20ms; silence for 0.5s after a
        kill means it is gone (and stays gone)."""
        deadline = time.monotonic() + within
        while time.monotonic() < deadline:
            before = path.read_text() if path.exists() else ""
            time.sleep(0.5)
            after = path.read_text() if path.exists() else ""
            if before == after:
                return
        raise AssertionError("cell kept executing after preemption")

    def test_cancel_kills_cell_and_frees_the_slot(self, tmp_path,
                                                  monkeypatch):
        beat = tmp_path / "beat"
        coord, rfile, thread = self._handshake(monkeypatch, beat)
        self._send_job(coord, 1, "bc")
        deadline = time.monotonic() + 10
        while not beat.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert beat.exists(), "hanging cell never started"
        backends.send_msg(coord, {"type": "cancel", "id": 1})
        self._assert_heartbeat_stops(beat)
        # No reply is owed for the cancelled cell, and the slot is
        # immediately usable: the next (healthy) cell completes.
        self._send_job(coord, 2, "ycsb")
        reply = backends.recv_msg(rfile)
        assert reply["id"] == 2 and reply["ok"] is True
        assert reply["result"]["workload"] == "ycsb"
        backends.send_msg(coord, {"type": "bye"})
        thread.join(timeout=10)
        assert not thread.is_alive()
        coord.close()

    def test_coordinator_hangup_kills_cell(self, tmp_path, monkeypatch):
        beat = tmp_path / "beat"
        coord, rfile, thread = self._handshake(monkeypatch, beat)
        self._send_job(coord, 1, "bc")
        deadline = time.monotonic() + 10
        while not beat.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert beat.exists(), "hanging cell never started"
        # A coordinator crash is an EOF, not a polite cancel.  SHUT_RDWR
        # (not close) because the forked cell child holds a dup of the
        # worker-side fd until _cell_child drops it.
        coord.shutdown(socket.SHUT_RDWR)
        thread.join(timeout=10)
        assert not thread.is_alive()
        self._assert_heartbeat_stops(beat)
        coord.close()

    def test_orphaned_cell_child_releases_the_connection(self, monkeypatch):
        """A SIGKILLed worker's cell child must not hold the coordinator
        connection open: the coordinator retries the cell only once it
        reads EOF.  The child inherits the worker's ``makefile`` reader,
        which kept the descriptor alive through a plain ``sock.close()``."""
        monkeypatch.setattr(worker_mod, "_execute_job",
                            lambda job: time.sleep(30))
        coord, worker_side = socket.socketpair()
        rfile = worker_side.makefile("r", encoding="utf-8")
        job = SweepJob.make("bc", "Base-CSSD", records_per_thread=R)
        message = {"type": "job", "id": 1}
        message.update(backends.job_to_wire(job))
        parent_conn, child_conn = worker_mod._FORK_CTX.Pipe()
        proc = worker_mod._FORK_CTX.Process(
            target=worker_mod._cell_child, args=(child_conn,), daemon=True,
        )
        proc.start()
        try:
            child_conn.close()
            parent_conn.send(message)  # the child is now mid-cell
            # The worker parent dies: its reader and socket go away.
            rfile.close()
            worker_side.close()
            coord.settimeout(1.0)
            assert coord.recv(1) == b""  # EOF, not a timeout
            assert proc.is_alive()  # ...from the release, not a crash
        finally:
            proc.kill()
            proc.join(timeout=5)
            parent_conn.close()
            coord.close()

    @pytest.mark.parametrize("mid_cell", [False, True])
    def test_orphaned_cell_child_exits_at_its_next_pipe_use(
            self, monkeypatch, mid_cell):
        """With its worker gone, an idle child reads EOF and a busy one
        gets a broken pipe for its reply: either way it exits instead
        of serving on."""
        job = SweepJob.make("bc", "DRAM-Only", records_per_thread=R)
        result = worker_mod._execute_job(job)

        def slow_execute(_job):
            time.sleep(0.3)
            return result

        monkeypatch.setattr(worker_mod, "_execute_job", slow_execute)
        parent_conn, child_conn = worker_mod._FORK_CTX.Pipe()
        proc = worker_mod._FORK_CTX.Process(
            target=worker_mod._cell_child, args=(child_conn,), daemon=True,
        )
        proc.start()
        try:
            child_conn.close()
            if mid_cell:
                message = {"type": "job", "id": 1}
                message.update(backends.job_to_wire(job))
                parent_conn.send(message)
            parent_conn.close()  # the worker is SIGKILLed
            proc.join(timeout=10)
            assert proc.exitcode == 0
        finally:
            proc.kill()
            proc.join(timeout=5)

    def test_cells_share_one_child_until_a_cancel(self, tmp_path,
                                                  monkeypatch):
        """Cells on one worker run in the same long-lived child, so the
        trace memo carries between them; a cancel kills that child and
        the next cell gets a fresh one."""
        beat = tmp_path / "beat"
        child = worker_mod.CellChild()
        coord, rfile, thread = self._handshake(monkeypatch, beat, child)
        pids = []
        for seq, variant in ((1, "Base-CSSD"), (2, "DRAM-Only")):
            self._send_job(coord, seq, "ycsb", variant)
            reply = backends.recv_msg(rfile)
            assert reply["id"] == seq and reply["ok"] is True
            pids.append(child.pid)
        assert pids[0] == pids[1] != os.getpid()
        assert self._executed_in(beat) == pids
        self._send_job(coord, 3, "bc")
        deadline = time.monotonic() + 10
        while not beat.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert beat.exists(), "hanging cell never started"
        backends.send_msg(coord, {"type": "cancel", "id": 3})
        self._assert_heartbeat_stops(beat)
        self._send_job(coord, 4, "ycsb")
        reply = backends.recv_msg(rfile)
        assert reply["id"] == 4 and reply["ok"] is True
        assert child.pid not in (None, pids[0])
        assert self._executed_in(beat)[-1] == child.pid
        backends.send_msg(coord, {"type": "bye"})
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert child.pid is not None  # kept past the connection's end
        child.close()
        coord.close()

    def test_timed_out_cell_gets_a_cancel_message(self):
        """Coordinator side of the fix: abandoning a cell on timeout
        sends ``cancel`` before the retry, so a real worker can kill
        the stale attempt."""
        policy = CellPolicy(cell_timeout=0.5, retry_budget=3)
        with DistributedBackend(listen="127.0.0.1:0", policy=policy) as backend:
            cancelled = threading.Event()
            stalled = threading.Event()

            def stalling_worker():
                sock = socket.create_connection(backend.address)
                rfile = sock.makefile("r", encoding="utf-8")
                backends.send_msg(
                    sock, {"type": "hello",
                           "version": backends.PROTOCOL_VERSION}
                )
                job_msg = backends.recv_msg(rfile)
                assert job_msg["type"] == "job"
                stalled.set()
                # Stall the cell but keep listening, like a real worker
                # whose child is simulating: the coordinator's timeout
                # must deliver a cancel for this exact cell.
                note = backends.recv_msg(rfile)
                if note and note.get("type") == "cancel" \
                        and note.get("id") == job_msg["id"]:
                    cancelled.set()

            def good_worker_after_stall():
                assert stalled.wait(timeout=20)
                start_inprocess_worker(backend.address)

            threading.Thread(target=stalling_worker, daemon=True).start()
            threading.Thread(target=good_worker_after_stall,
                             daemon=True).start()
            results = run_sweep(tiny_jobs()[:1], backend=backend)
            assert cancelled.wait(timeout=10), \
                "timeout abandoned the cell without sending cancel"
        assert dumps(results) == dumps(
            run_sweep(tiny_jobs()[:1])
        )


def test_cell_child_forked_while_a_thread_logs():
    """The worker forks its cell child while other threads run; one of
    them may be inside the log module's lock (every span's end takes it,
    on worker and coordinator threads alike).  The child's cell ends a
    span too, so it must not inherit that lock held: with the lock held
    across the fork, the cell still completes."""
    from repro.obs import log as obs_log

    child = worker_mod.CellChild()
    message = {"type": "job", **backends.job_to_wire(tiny_jobs()[1])}
    try:
        with obs_log._lock:
            runner = threading.Thread(target=child.send, args=(message,),
                                      daemon=True)
            runner.start()
            # Hold the lock until the child exists.
            deadline = time.monotonic() + 30
            while child.pid is None and time.monotonic() < deadline:
                time.sleep(0.01)
        runner.join(timeout=30)
        ready, _, _ = select.select([child], [], [], 30)
        assert ready, "cell child hung on the log lock"
        payload = child.recv()
    finally:
        child.close()
    assert payload["ok"], payload
