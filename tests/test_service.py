"""Tests for sweep-as-a-service: sqlite stores, coordinator, HTTP API.

Covers the service's result cache (``SqliteResultCache``, the one
:class:`ResultCache`: round trips, LRU caps, one-time adoption of a
legacy ``index.json``, multi-process writers), the :class:`JobStore` queue (priority + fair-share claim order,
concurrent submitters, crash requeue, cancellation), the :class:`SweepService`
scheduler (byte-identical results, failure capture, restart recovery --
including a SIGKILL'd ``repro serve`` subprocess resuming its queue),
and the HTTP front end with two concurrent submitters.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from _worker_utils import worker_env
from repro.cli import main
from repro.experiments.orchestrator import run_sweep, sweep_product
from repro.service.api import ServiceAPI
from repro.service.client import ServiceClient, ServiceError
from repro.experiments.jobspec import parse_spec, run_figures
from repro.service.coordinator import JobCancelled, SweepService
from repro.service.store import JobStore, SqliteResultCache
from test_cache_store import entry_size, fake_result, write_legacy_cache

R = 150  # tiny traces: service plumbing, not magnitudes


def dumps(results):
    return [json.dumps(r if isinstance(r, dict) else r.to_dict(),
                       sort_keys=True) for r in results]


# ---------------------------------------------------------------------------
# SqliteResultCache


class TestSqliteResultCache:
    def test_round_trip_and_counters(self, tmp_path):
        store = SqliteResultCache(tmp_path)
        assert store.get("missing") is None
        store.put("k1", fake_result())
        hit = store.get("k1")
        assert hit is not None and hit.workload == "bc"
        stats = store.stats()
        assert stats["index"] == "sqlite"
        assert (stats["hits"], stats["misses"], stats["puts"]) == (1, 1, 1)

    def test_counters_survive_reopen(self, tmp_path):
        SqliteResultCache(tmp_path).put("k1", fake_result())
        store = SqliteResultCache(tmp_path)
        assert store.get("k1") is not None
        stats = store.stats()
        assert stats["puts"] == 1 and stats["hits"] == 1

    def test_cap_evicts_oldest_first(self, tmp_path):
        unit = entry_size(tmp_path)
        store = SqliteResultCache(tmp_path / "c", max_bytes=3 * unit + unit // 2)
        for i in range(5):
            store.put(f"k{i}", fake_result())
        assert {p.stem for p in store.entries()} == {"k2", "k3", "k4"}
        assert store.stats()["evictions"] == 2
        assert store.size_bytes() <= store.max_bytes

    def test_get_refreshes_lru_order(self, tmp_path):
        unit = entry_size(tmp_path)
        store = SqliteResultCache(tmp_path / "c", max_bytes=3 * unit + unit // 2)
        for key in ("k0", "k1", "k2"):
            store.put(key, fake_result())
        assert store.get("k0") is not None
        store.put("k3", fake_result())
        assert {p.stem for p in store.entries()} == {"k0", "k2", "k3"}

    def test_fresh_key_never_self_evicts(self, tmp_path):
        unit = entry_size(tmp_path)
        store = SqliteResultCache(tmp_path / "c", max_bytes=unit // 2)
        store.put("k0", fake_result())
        store.put("k1", fake_result())
        assert [p.stem for p in store.entries()] == ["k1"]

    def test_adopts_legacy_json_index(self, tmp_path):
        write_legacy_cache(tmp_path, keys=("old1", "old2"), hits=1, misses=1)
        store = SqliteResultCache(tmp_path)
        assert store.get("old1").workload == "bc"
        assert store.get("old2") is not None
        stats = store.stats()
        # Adoption preserved the legacy counters, then the two fresh
        # hits above were added on top.
        assert stats["puts"] == 2
        assert stats["hits"] == 1 + 2
        assert stats["misses"] == 1
        assert not (tmp_path / SqliteResultCache.LEGACY_INDEX_NAME).exists()
        assert (tmp_path / SqliteResultCache.MIGRATED_NAME).is_file()

    def test_adoption_happens_once(self, tmp_path):
        write_legacy_cache(tmp_path, keys=("old",))
        SqliteResultCache(tmp_path).get("old")
        # A new legacy index written afterwards must not be re-imported
        # (the sqlite index is authoritative once it exists).
        (tmp_path / SqliteResultCache.LEGACY_INDEX_NAME).write_text(json.dumps(
            {"version": 1, "tick": 0, "entries": {},
             "stats": {"hits": 0, "misses": 0, "evictions": 0, "puts": 7}}
        ))
        store = SqliteResultCache(tmp_path)
        assert store.stats()["puts"] == 1
        assert store.stats()["entries"] == 1  # index.json is never a blob

    def test_clear(self, tmp_path):
        store = SqliteResultCache(tmp_path)
        store.put("k", fake_result())
        store.clear()
        assert list(store.entries()) == []
        assert store.get("k") is None


def _sqlite_hammer(root: str, worker_id: int, n: int, max_bytes) -> None:
    store = SqliteResultCache(root, max_bytes=max_bytes)
    for i in range(n):
        key = f"w{worker_id}k{i:03d}"
        store.put(key, fake_result())
        store.get(key)
        store.get(f"w{(worker_id + 1) % 4}k{i:03d}")


def _run_sqlite_hammers(root, max_bytes=None, n=20):
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_sqlite_hammer, args=(str(root), wid, n, max_bytes))
        for wid in range(4)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0


class TestSqliteCacheConcurrency:
    def test_concurrent_writers_uncapped(self, tmp_path):
        _run_sqlite_hammers(tmp_path)
        store = SqliteResultCache(tmp_path)
        assert store.stats()["puts"] == 80
        assert len(list(store.entries())) == 80
        for path in store.entries():
            assert store.get(path.stem) is not None

    def test_concurrent_writers_capped_never_corrupt(self, tmp_path):
        unit = entry_size(tmp_path)
        root = tmp_path / "c"
        _run_sqlite_hammers(root, max_bytes=10 * unit)
        store = SqliteResultCache(root, max_bytes=10 * unit)
        stats = store.stats()
        assert stats["puts"] == 80
        assert store.size_bytes() <= 10 * unit
        # Every surviving index entry must be readable -- no orphans.
        for path in store.entries():
            assert store.get(path.stem) is not None, path.stem


# ---------------------------------------------------------------------------
# JobStore


class TestJobStore:
    def test_submit_get_list_counts(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        a = store.submit("sweep", {"workloads": ["bc"]}, submitter="alice")
        b = store.submit("report", {}, submitter="bob", priority=3)
        job = store.get(a)
        assert job["kind"] == "sweep" and job["state"] == "queued"
        assert job["spec"] == {"workloads": ["bc"]}
        assert store.get(999) is None
        assert [j["id"] for j in store.list_jobs()] == [a, b]
        assert [j["id"] for j in store.list_jobs(submitter="bob")] == [b]
        assert store.counts()["queued"] == 2

    def test_claim_order_priority_fairshare_fifo(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        a1 = store.submit("sweep", {}, submitter="alice")
        a2 = store.submit("sweep", {}, submitter="alice")
        b1 = store.submit("sweep", {}, submitter="bob")
        hot = store.submit("sweep", {}, submitter="alice", priority=9)
        # Priority first; then alice and bob alternate (fair share, each
        # claim counts toward its submitter); FIFO breaks the ties.
        assert store.claim_next()["id"] == hot
        assert store.claim_next()["id"] == b1      # bob has 0 started
        assert store.claim_next()["id"] == a1
        assert store.claim_next()["id"] == a2
        assert store.claim_next() is None

    def test_finish_fail_and_events(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        jid = store.submit("sweep", {})
        store.claim_next()
        store.add_event(jid, {"event": "cell", "workload": "bc"})
        store.add_event(jid, {"event": "cell", "workload": "ycsb"})
        store.finish(jid, {"results": [1, 2]})
        job = store.get(jid)
        assert job["state"] == "done"
        assert job["result"] == {"results": [1, 2]}
        events = store.events_after(jid)
        assert [e.get("workload") for e in events
                if e["event"] == "cell"] == ["bc", "ycsb"]
        assert store.events_after(jid, after=events[-1]["seq"]) == []

        bad = store.submit("sweep", {})
        store.claim_next()
        store.fail(bad, "boom")
        assert store.get(bad)["state"] == "failed"
        assert "boom" in store.get(bad)["error"]

    def test_requeue_running_after_crash(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        jid = store.submit("sweep", {})
        store.claim_next()
        assert store.get(jid)["state"] == "running"
        store.close()
        # A new process opening the same queue (coordinator restart)
        # finds the orphaned running job and requeues it.
        fresh = JobStore(tmp_path / "jobs.sqlite3")
        assert fresh.requeue_running() == [jid]
        assert fresh.get(jid)["state"] == "queued"
        assert fresh.claim_next()["id"] == jid
        assert fresh.get(jid)["attempts"] == 2

    def test_cancel_queued_and_running(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        queued = store.submit("sweep", {})
        running = store.submit("sweep", {})
        assert store.request_cancel(queued) == "cancelled"
        assert store.get(queued)["state"] == "cancelled"
        store.claim_next()  # claims `running` (queued one is cancelled)
        assert store.request_cancel(running) == "running"
        assert store.cancel_requested(running)
        store.mark_cancelled(running)
        assert store.get(running)["state"] == "cancelled"
        assert store.request_cancel(999) is None


def _submit_burst(path: str, submitter: str, n: int) -> None:
    store = JobStore(path)
    for i in range(n):
        store.submit("sweep", {"i": i}, submitter=submitter)


class TestJobStoreConcurrency:
    def test_concurrent_submitters_lose_nothing(self, tmp_path):
        path = tmp_path / "jobs.sqlite3"
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_submit_burst, args=(str(path), f"user{i}", 25))
            for i in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = JobStore(path)
        jobs = store.list_jobs()
        assert len(jobs) == 100
        assert len({j["id"] for j in jobs}) == 100
        assert store.counts()["queued"] == 100
        # Fair share holds under interleaved submitters too: the first
        # four claims go to four distinct users.
        first_four = {store.claim_next()["submitter"] for _ in range(4)}
        assert first_four == {f"user{i}" for i in range(4)}


    def test_reader_sees_terminal_state_with_its_event(self, tmp_path):
        """A job's terminal state and its ``state`` event commit
        together: a reader that sees the one sees the other, so an event
        stream that ends on the state cannot miss the event."""
        store = JobStore(tmp_path / "jobs.sqlite3")
        ids = [store.submit("sweep", {}) for _ in range(150)]
        for _ in ids:
            store.claim_next()
        current = [ids[0]]
        torn = []
        finished = threading.Event()

        def reader():
            while not finished.is_set():
                jid = current[0]
                if store.get(jid)["state"] == "done" and not any(
                        e["event"] == "state" and e["state"] == "done"
                        for e in store.events_after(jid)):
                    torn.append(jid)

        thread = threading.Thread(target=reader, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            for jid in ids:
                current[0] = jid
                store.finish(jid, {"ok": True})
        finally:
            finished.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert torn == []


# ---------------------------------------------------------------------------
# SweepService


def wait_for(store, jid, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = store.get(jid)
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {jid} still {job['state']} after {timeout}s")


class TestSweepService:
    def test_sweep_job_matches_run_sweep(self, tmp_path):
        with SweepService(state_dir=tmp_path / "s", cache_dir=tmp_path / "c",
                          jobs=2) as svc:
            jid = svc.submit("sweep", {"workloads": ["ycsb"],
                                       "variants": ["Base-CSSD", "DRAM-Only"],
                                       "records": R})
            job = wait_for(svc.store, jid)
            assert job["state"] == "done", job.get("error")
            payload = job["result"]
            specs = sweep_product(["ycsb"], ["Base-CSSD", "DRAM-Only"],
                                  records_per_thread=R)
            local = run_sweep(specs, jobs=2, cache=False)
            assert dumps(payload["results"]) == dumps(local)
            # The artifact on disk is the same document.
            artifact = svc.artifact_dir(jid) / "results.json"
            assert json.loads(artifact.read_text()) == payload
            # One plan event, then a cell event per cell.
            events = svc.store.events_after(jid)
            assert [e["event"] for e in events if e["event"] == "cell"] \
                == ["cell", "cell"]

    def test_failed_job_records_traceback(self, tmp_path, monkeypatch):
        """A cell that raises while it runs fails its job, and the job
        keeps the traceback.  (A bad name never gets this far: submit
        rejects it.)"""
        from repro.experiments import orchestrator

        def crash(workload, variant, **kwargs):
            raise RuntimeError(f"cell {workload}/{variant} crashed")

        # jobs=1 runs cells in process, so the patched runner is the
        # one the job calls.
        monkeypatch.setattr(orchestrator, "run_workload", crash)
        with SweepService(state_dir=tmp_path / "s", cache_dir=tmp_path / "c",
                          jobs=1) as svc:
            jid = svc.submit("sweep", {"workloads": ["bc"],
                                       "variants": ["DRAM-Only"],
                                       "records": R})
            job = wait_for(svc.store, jid)
            assert job["state"] == "failed"
            assert "cell bc/DRAM-Only crashed" in job["error"]
            assert "Traceback" in job["error"]

    def test_unknown_kind_rejected(self, tmp_path):
        with SweepService(state_dir=tmp_path / "s", cache_dir=tmp_path / "c",
                          jobs=1) as svc:
            with pytest.raises(ValueError, match="unknown job kind"):
                svc.submit("bogus", {})

    def test_idle_scheduler_waits_for_a_submit(self, tmp_path):
        """An idle scheduler blocks on the store's change signal: no
        claim_next between submits (a polling one claims every 0.2 s),
        and a submit is claimed at once."""
        svc = SweepService(state_dir=tmp_path / "s", cache_dir=tmp_path / "c",
                           jobs=1)
        claims = []
        claim_next = svc.store.claim_next
        svc.store.claim_next = lambda: claims.append(1) or claim_next()
        with svc:
            time.sleep(0.5)
            assert len(claims) <= 1  # the startup claim, then silence
            jid = svc.submit("sweep", {"workloads": ["bc"],
                                       "variants": ["DRAM-Only"],
                                       "records": R})
            assert wait_for(svc.store, jid)["state"] == "done"
            time.sleep(0.1)  # the claim that finds the queue empty
            settled = len(claims)
            time.sleep(0.5)
            assert len(claims) == settled
        assert settled <= 3

    def test_close_releases_a_blocked_scheduler(self, tmp_path):
        svc = SweepService(state_dir=tmp_path / "s", cache_dir=tmp_path / "c",
                           jobs=1, max_active=2)
        svc.start()
        schedulers = list(svc._schedulers)
        time.sleep(0.2)  # both are blocked waiting for work
        start = time.monotonic()
        svc.close()
        assert time.monotonic() - start < 5.0
        assert not any(thread.is_alive() for thread in schedulers)

    def test_report_job_matches_repro_report(self, tmp_path, monkeypatch):
        """A report job and ``repro report`` run one figures loop: the
        figure JSON they write is byte-identical."""
        monkeypatch.chdir(tmp_path)
        local = tmp_path / "local"
        assert main(["report", "fig2", "--workloads", "bc", "--records",
                     str(R), "--no-cache", "--no-trends", "--quiet",
                     "-o", str(local)]) == 0
        with SweepService(state_dir=tmp_path / "s", cache_dir=tmp_path / "c",
                          jobs=1) as svc:
            jid = svc.submit("report", {"figures": ["fig2"],
                                        "workloads": ["bc"], "records": R})
            job = wait_for(svc.store, jid)
            assert job["state"] == "done", job.get("error")
            assert job["result"]["figures"] == ["fig2"]
            served = svc.artifact_dir(jid) / "fig2.json"
            assert served.read_bytes() == (local / "fig2.json").read_bytes()

    def test_restart_resumes_claimed_job(self, tmp_path):
        # A coordinator claimed the job, then died without finishing
        # it.  Simulate the aftermath directly in the queue...
        pre = JobStore(tmp_path / "s" / "jobs.sqlite3")
        jid = pre.submit("sweep", {"workloads": ["bc"],
                                   "variants": ["Base-CSSD"], "records": R})
        assert pre.claim_next()["id"] == jid
        pre.close()
        # ...then a fresh service on the same state dir must requeue
        # and run it to completion without resubmission.
        with SweepService(state_dir=tmp_path / "s", cache_dir=tmp_path / "c",
                          jobs=1) as svc:
            job = wait_for(svc.store, jid)
            assert job["state"] == "done", job.get("error")
            assert job["attempts"] == 2

    def test_resumes_jobs_queued_with_keys_their_kind_ignores(self, tmp_path):
        """Jobs queued before submit checked specs may carry keys their
        kind ignores (a scenario job's ``workloads``, a report job's
        ``variants``); they still run after a restart."""
        pre = JobStore(tmp_path / "s" / "jobs.sqlite3")
        scenario = pre.submit("scenario", {
            "names": ["tab1-bc"], "workloads": ["bc"],
            "variants": ["DRAM-Only"], "records": R})
        report = pre.submit("report", {
            "figures": ["fig2"], "workloads": ["bc"],
            "variants": ["DRAM-Only"], "records": R})
        pre.close()
        with SweepService(state_dir=tmp_path / "s", cache_dir=tmp_path / "c",
                          jobs=1) as svc:
            for jid in (scenario, report):
                job = wait_for(svc.store, jid)
                assert job["state"] == "done", job.get("error")

    def test_cancel_passes_through_the_figures_loop(self, tmp_path):
        """A report job's cancel is raised from its progress callback
        inside the sweep; the figures loop must not record it as a
        failed figure."""
        from repro.figures.report import ReportBuilder

        spec = parse_spec("report", {"figures": ["fig2", "table3"],
                                     "workloads": ["bc"], "records": R})
        builder = ReportBuilder(tmp_path, list(spec.figures))

        def progress(job, source):
            raise JobCancelled("stop")

        with pytest.raises(JobCancelled):
            run_figures(spec, tmp_path, builder, cache=False,
                        progress=progress)
        assert not (tmp_path / "fig2.json").exists()
        assert not (tmp_path / "table3.json").exists()


# ---------------------------------------------------------------------------
# HTTP API + client


@pytest.fixture
def service(tmp_path):
    svc = SweepService(state_dir=tmp_path / "state",
                       cache_dir=tmp_path / "cache", jobs=2, max_active=2)
    svc.start()
    api = ServiceAPI(svc, port=0)
    api.start()
    client = ServiceClient(api.url)
    client.wait_healthy()
    yield svc, client
    api.close()
    svc.close()


class TestServiceHTTP:
    def test_status_and_health(self, service):
        _, client = service
        status = client.status()
        assert status["jobs"]["queued"] == 0
        assert status["cache"]["index"] == "sqlite"

    @pytest.mark.parametrize("spec, field", [
        ({"recrods": 200}, "recrods"),
        ({"threads": 0}, "threads"),
        ({"workloads": ["no-such-workload"]}, "workloads"),
        ({"timing": "TLC"}, "timing"),
    ])
    def test_bad_spec_is_400_at_submit(self, service, spec, field):
        """A bad spec never becomes a queued job that fails (or, worse,
        runs something else) later."""
        svc, client = service
        with pytest.raises(ServiceError) as err:
            client.submit("sweep", spec)
        assert err.value.status == 400
        assert f"{field}: " in str(err.value)
        assert svc.store.list_jobs() == []

    def test_sweep_job_honours_device_model(self, service):
        _, client = service
        jid = client.submit("sweep", {"workloads": ["bc"],
                                      "variants": ["Base-CSSD"],
                                      "records": R,
                                      "device_model": "deep"})["id"]
        final = client.wait(jid, timeout=120)
        assert final["state"] == "done", final.get("error")
        got = client.result(jid)["results"]
        assert got[0]["config"]["device_model"]["kind"] == "deep"
        local = run_sweep(sweep_product(["bc"], ["Base-CSSD"],
                                        records_per_thread=R,
                                        device_model="deep"),
                          jobs=1, cache=False)
        assert dumps(got) == dumps(local)

    def test_error_paths(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client.job(99)
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.submit("bogus", {})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.jobs(state="nope")
        assert err.value.status == 400

    def test_result_of_unfinished_job_conflicts(self, tmp_path):
        # No scheduler runs, so the job stays queued.  A started service
        # could claim it between submit and cancel and run the default
        # (full-size) sweep in the background past the test's end.
        svc = SweepService(state_dir=tmp_path / "state",
                           cache_dir=tmp_path / "cache", jobs=1)
        api = ServiceAPI(svc, port=0)
        api.start()
        try:
            client = ServiceClient(api.url)
            client.wait_healthy()
            jid = svc.store.submit("sweep", {})
            svc.store.request_cancel(jid)
            with pytest.raises(ServiceError) as err:
                client.result(jid)
            assert err.value.status == 409
        finally:
            api.close()
            svc.close()

    def test_concurrent_submitters_byte_identical(self, service):
        """Two submitters race overlapping sweeps over HTTP; both jobs
        complete and every result equals a local run_sweep."""
        _, client = service
        specs = {
            "alice": {"workloads": ["ycsb"],
                      "variants": ["Base-CSSD", "DRAM-Only"], "records": R},
            "bob": {"workloads": ["ycsb", "bc"],
                    "variants": ["Base-CSSD"], "records": R},
        }
        jobs = {}

        def submit(name):
            jobs[name] = client.submit("sweep", specs[name],
                                       submitter=name)["id"]

        threads = [threading.Thread(target=submit, args=(n,)) for n in specs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert set(jobs) == {"alice", "bob"}

        for name, spec in specs.items():
            final = client.wait(jobs[name], timeout=120)
            assert final["state"] == "done", final.get("error")
            payload = client.result(jobs[name])
            local = run_sweep(
                sweep_product(spec["workloads"], spec["variants"],
                              records_per_thread=R),
                jobs=2, cache=False,
            )
            assert dumps(payload["results"]) == dumps(local)

    def test_event_stream_ends_with_state(self, service):
        _, client = service
        jid = client.submit("sweep", {"workloads": ["bc"],
                                      "variants": ["Base-CSSD"],
                                      "records": R})["id"]
        events = list(client.stream(jid))
        assert events[-1]["event"] == "state"
        assert events[-1]["state"] == "done"
        assert any(e["event"] == "cell" for e in events)
        # The poll endpoint replays the same log (minus the synthetic
        # terminal line the stream appends).
        polled = client.events(jid)
        assert [e["seq"] for e in polled] == [e["seq"] for e in events[:-1]]

    def test_event_stream_ends_when_the_api_closes(self, tmp_path):
        """A stream waiting on a job that never runs ends when the API
        shuts down: closing wakes every streamer."""
        svc = SweepService(state_dir=tmp_path / "state",
                           cache_dir=tmp_path / "cache", jobs=1)
        api = ServiceAPI(svc, port=0)
        api.start()
        client = ServiceClient(api.url)
        jid = svc.store.submit("sweep", {})  # no scheduler: stays queued
        svc.store.add_event(jid, {"event": "note"})
        seen = []
        reader = threading.Thread(
            target=lambda: seen.extend(client.stream(jid)), daemon=True)
        try:
            client.wait_healthy()
            reader.start()
            deadline = time.monotonic() + 10
            while not seen and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [e["event"] for e in seen] == ["note"]  # stream is open
        finally:
            api.close()
            svc.close()
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert [e["event"] for e in seen] == ["note"]  # no terminal line

    def test_cancel_queued_over_http(self, service):
        svc, client = service
        # Submit through the store with scheduling effectively off by
        # saturating both slots first? Simpler: cancel can race the
        # scheduler, so accept either outcome but require a terminal or
        # flagged state.
        jid = client.submit("sweep", {"workloads": ["bc"],
                                      "variants": ["Base-CSSD"],
                                      "records": R})["id"]
        outcome = client.cancel(jid)
        assert outcome["state"] in ("cancelled", "running", "done")
        final = client.wait(jid, timeout=120)
        assert final["state"] in ("cancelled", "done")


# ---------------------------------------------------------------------------
# repro serve process lifecycle (the acceptance scenario)


def _serve_proc(tmp_path, extra=(), preexec_fn=None):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--http", "127.0.0.1:0",
         "--state-dir", str(tmp_path / "state"),
         "--cache-dir", str(tmp_path / "cache"), "--jobs", "1", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=worker_env(), preexec_fn=preexec_fn,
    )
    # On restart the requeue announcement precedes the listen line.
    for line in proc.stdout:
        if "listening on" in line:
            return proc, line.split("listening on ", 1)[1].split()[0]
    raise AssertionError("serve exited without announcing its address")


class TestServeProcess:
    def test_sigkill_restart_resumes_queue(self, tmp_path):
        """SIGKILL the coordinator mid-queue; a restart on the same
        state dir finishes every submitted job without resubmission."""
        proc, url = _serve_proc(tmp_path)
        client = ServiceClient(url)
        try:
            client.wait_healthy()
            ids = [
                client.submit("sweep",
                              {"workloads": ["bc"], "variants": [variant],
                               "records": R})["id"]
                for variant in ("Base-CSSD", "DRAM-Only", "SkyByte-Full")
            ]
            # Let it start working, then kill it without ceremony.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if any(client.job(i)["state"] != "queued" for i in ids):
                    break
                time.sleep(0.05)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)

        proc2, url2 = _serve_proc(tmp_path)
        try:
            client2 = ServiceClient(url2)
            client2.wait_healthy()
            for jid in ids:
                final = client2.wait(jid, timeout=180)
                assert final["state"] == "done", final.get("error")
            # And the payloads match a local sweep exactly.
            payload = client2.result(ids[0])
            local = run_sweep(
                sweep_product(["bc"], ["Base-CSSD"], records_per_thread=R),
                jobs=1, cache=False,
            )
            assert dumps(payload["results"]) == dumps(local)
        finally:
            proc2.terminate()
            proc2.wait(timeout=10)

    @staticmethod
    def _assert_signal_shuts_down(tmp_path, sig, preexec_fn=None):
        proc, url = _serve_proc(tmp_path, preexec_fn=preexec_fn)
        try:
            client = ServiceClient(url)
            client.wait_healthy()
            proc.send_signal(sig)
            assert proc.wait(timeout=15) == 0
            assert "shutting down" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_sigint_exits_cleanly(self, tmp_path):
        self._assert_signal_shuts_down(tmp_path, signal.SIGINT)

    def test_sigint_exits_cleanly_when_started_ignoring_it(self, tmp_path):
        """A shell that starts ``serve`` in the background hands it
        SIGINT set to SIG_IGN; Ctrl-C still shuts it down."""
        self._assert_signal_shuts_down(
            tmp_path, signal.SIGINT,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )

    def test_sigterm_exits_cleanly(self, tmp_path):
        """A plain ``kill`` runs the same shutdown path as Ctrl-C."""
        self._assert_signal_shuts_down(tmp_path, signal.SIGTERM)
