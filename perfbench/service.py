"""The ``service-sweep`` workload: ``repro serve --listen`` with two
``repro worker --connect`` processes and one client.

The client submits a cold sweep job (a fresh seed derived from
``--seed``, so every cell runs), polls the job's event log
(``GET /api/jobs/<id>/events?after=N``) every 10 ms until the terminal
state event, then resubmits the same spec as a warm job that the
service's result cache serves in full.  Pairs run back to back until
``--seconds`` have passed; the first pair warms the fleet and is not
measured.  Once the fleet is stopped, the same cells run in process:
every service result must byte-match the in-process result, and the
in-process wall is the base that ``experiments.run_cell_overhead_s``
subtracts.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Optional

from cells import (
    BASE, FULL, Checker, accounting_context, cell_list, pinned_digests,
    run_pass, summarize_layers, traced_pass, untraced_pass,
)
from common import (
    OUT_DIR, cell_id, derive_seed, digest, median, peak_rss_mb, percentile,
    per_layer_defaults, sim_summary,
)

#: Fleet spawns per run; ``setup_s`` is their median.  The last stays up.
SETUP_SPAWNS = 3
#: Measured cold/warm pairs a run makes at least; the sim metrics come
#: from the first this many cold jobs.
MIN_PAIRS = 3
#: Seconds between event-log polls while a job runs.
EVENT_POLL = 0.01
#: Seconds a job may take before it counts as failed.
JOB_TIMEOUT = 120.0
#: Seconds a spawn may take before the run fails.
SPAWN_TIMEOUT = 60.0

_LISTENING = re.compile(
    r"serve: listening on (http://[\d.]+:\d+) .*listen=([\d.]+):(\d+)")


class Fleet:
    """One coordinator plus its dial-in workers, all child processes."""

    def __init__(self, workdir: str, workers: int) -> None:
        self.workdir = workdir
        self.workers = workers
        self.url: Optional[str] = None
        self.listen_port: Optional[int] = None
        self.serve: Optional[subprocess.Popen] = None
        self.fleet: List[subprocess.Popen] = []
        self._logs = []

    def _spawn(self, args: List[str], log_name: str) -> subprocess.Popen:
        log = open(os.path.join(self.workdir, log_name), "w")
        self._logs.append(log)
        return subprocess.Popen(
            [sys.executable, "-m", "repro"] + args, stdout=log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )

    def start(self) -> float:
        """Spawn everything; returns seconds until ``/healthz`` answers
        and every worker holds a connection to the listener."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        start = time.perf_counter()
        self.serve = self._spawn([
            "serve", "--http", "127.0.0.1:0", "--listen", "127.0.0.1:0",
            "--state-dir", os.path.join(self.workdir, "state"),
            "--cache-dir", os.path.join(self.workdir, "cache"),
        ], "serve.log")
        deadline = start + SPAWN_TIMEOUT
        serve_log = os.path.join(self.workdir, "serve.log")
        while self.url is None:
            self._alive_or_raise(deadline)
            with open(serve_log, encoding="utf-8") as handle:
                match = _LISTENING.search(handle.read())
            if match:
                self.url = match.group(1)
                self.listen_port = int(match.group(3))
            else:
                time.sleep(0.005)
        address = f"127.0.0.1:{self.listen_port}"
        for i in range(self.workers):
            self.fleet.append(self._spawn(
                ["worker", "--connect", address, "--no-cache"],
                f"worker{i}.log"))
        while not (_healthy(self.url)
                   and _established(self.listen_port) >= self.workers):
            self._alive_or_raise(deadline)
            time.sleep(0.005)
        return time.perf_counter() - start

    def _alive_or_raise(self, deadline: float) -> None:
        for proc in [self.serve] + self.fleet:
            if proc.poll() is not None:
                raise RuntimeError(f"fleet process exited {proc.returncode}")
        if time.perf_counter() > deadline:
            raise RuntimeError("fleet did not come up in time")

    def stop(self) -> None:
        """Interrupt the coordinator (its workers then exit) and wait for
        every process."""
        if self.serve is not None and self.serve.poll() is None:
            self.serve.send_signal(signal.SIGINT)
        for proc in [self.serve] + self.fleet:
            if proc is None:
                continue
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self._logs:
            log.close()
        self._logs = []
        self.serve, self.fleet = None, []


def _healthy(url: str) -> bool:
    try:
        with urllib.request.urlopen(url + "/healthz", timeout=2) as resp:
            return resp.status == 200
    except OSError:
        return False


def _established(port: int) -> int:
    """Connections established to local ``port`` (accepted or still in
    the listen backlog), from the kernel's socket tables."""
    count = 0
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table, encoding="ascii") as handle:
                rows = handle.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            if fields[3] == "01" and int(fields[1].rsplit(":", 1)[1], 16) == port:
                count += 1
    return count


def _scrape(url: str) -> Dict[str, float]:
    with urllib.request.urlopen(url + "/metrics", timeout=10) as resp:
        text = resp.read().decode()
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


def run_job(client, spec: Dict[str, object]) -> Dict[str, object]:
    """Submit one sweep job and poll its event log until the terminal
    state event.  Times are ``time.time()``, the clock of the events'
    ``at`` fields."""
    from repro.service.store import TERMINAL_STATES

    submitted = time.time()
    row = client.submit("sweep", spec, submitter="perfbench")
    acked = time.time()
    job_id, after, events = int(row["id"]), 0, []
    deadline = acked + JOB_TIMEOUT
    while time.time() < deadline:
        batch = client.events(job_id, after)
        received = time.time()
        for event in batch:
            events.append((received, event))
            after = event["seq"]
            if (event.get("event") == "state"
                    and event.get("state") in TERMINAL_STATES):
                return {"id": job_id, "submitted": submitted,
                        "acked": acked, "events": events,
                        "state": event["state"]}
        time.sleep(EVENT_POLL)
    return {"id": job_id, "submitted": submitted, "acked": acked,
            "events": events, "state": "timeout"}


def _job_times(job: Dict[str, object]) -> Dict[str, object]:
    t0 = job["submitted"]
    running = plan = None
    cells = []
    for received, event in job["events"]:
        kind = event.get("event")
        if kind == "state" and event.get("state") == "running":
            running = event["at"]
        elif kind == "plan":
            plan = event["at"]
        elif kind == "cell":
            cells.append((received, event))
    return {
        "total": job["events"][-1][0] - t0,
        "submit": job["acked"] - t0,
        "queue_wait": running - t0,
        "plan": plan - running,
        "cells": [(received - t0, received - e["at"], e) for received, e in cells],
        "last_cell_at": max(e["at"] for _, e in cells),
        "running": running,
        "plan_at": plan,
    }


def _results_by_cell(client, job_id: int) -> Dict[str, Dict[str, object]]:
    payload = client.result(job_id)
    return {cell_id(r["workload"], r["variant"]): r for r in payload["results"]}


def run(name: str, workload: Dict[str, object], spec: Dict[str, object],
        seed: int, seconds: float, trace: bool, t0: float) -> Dict[str, object]:
    from repro.service.client import ServiceClient

    checker = Checker()
    workdir = os.path.join(OUT_DIR, f"service-{os.getpid()}")
    workers = int(workload["workers"])
    cells = cell_list(workload)
    pins = pinned_digests(name, seed) or {}
    setups, pairs = [], []
    fleet = None
    try:
        for attempt in range(SETUP_SPAWNS):
            fleet = Fleet(workdir, workers)
            setups.append(fleet.start())
            if attempt + 1 < SETUP_SPAWNS:
                fleet.stop()
        client = ServiceClient(fleet.url, timeout=60.0)
        # Pairs run back to back: each submission follows the previous
        # job's terminal event, so every job meets the scheduler in the
        # same phase of its idle poll.  Pair 0 warms the fleet.
        begin = None
        while (begin is None or len(pairs) <= MIN_PAIRS
               or time.perf_counter() - begin < seconds):
            if len(pairs) == 1:
                begin = time.perf_counter()
            tag = f"cold-{len(pairs)}"
            job_spec = {
                "workloads": list(workload["workloads"]),
                "variants": list(workload["variants"]),
                "records": int(workload["records"]),
                "seed": derive_seed(seed, tag),
            }
            pairs.append((tag, job_spec, run_job(client, job_spec),
                          run_job(client, job_spec)))
        scrape = _scrape(fleet.url)
        coordinator_rss = peak_rss_mb(fleet.serve.pid)
        served = []
        for _, _, cold_job, warm_job in pairs:
            got = {}
            for label, job in (("cold", cold_job), ("warm", warm_job)):
                if job["state"] == "done":
                    got[label] = _results_by_cell(client, job["id"])
                else:
                    checker.fail(f"{label} job {job['id']}",
                                 f"ended {job['state']}")
            served.append(got)
    finally:
        if fleet is not None:
            fleet.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    # In-process reference of every job's cells, once the fleet is gone.
    tracer = None
    if trace:
        from layers import LayerTracer

        tracer = LayerTracer()
    panel, reference_walls = [], []
    traced_walls, untraced_walls, per_pass, accounting, events = (
        [], [], [], [], [])
    for (tag, job_spec, _, _), got in zip(pairs, served):
        kwargs = {"records_per_thread": job_spec["records"],
                  "seed": job_spec["seed"]}
        if tracer is not None:
            tracer.install()
            results, digests, wall, totals, account = traced_pass(
                tracer, cells, kwargs)
            tracer.uninstall()
            traced_walls.append(wall)
            per_pass.append(totals)
            accounting.append(account)
            _, _, wall, count = untraced_pass(cells, kwargs)
            untraced_walls.append(wall)
            events.append(count)
        else:
            results, digests, _, wall = run_pass(cells, kwargs)
        reference_walls.append(wall / len(cells))
        if len(panel) < MIN_PAIRS and tag != "cold-0":
            panel.append(results)
        pinned = pins.get(tag)
        for label, want in digests.items():
            if pinned is not None:
                checker.check(f"pinned {label}", want, pinned.get(label))
            for source in ("cold", "warm"):
                if source in got:
                    result = got[source].get(label)
                    checker.check(f"{source} {label}",
                                  digest(result) if result else None, want)

    measured = [(_job_times(c), _job_times(w), ref, got)
                for (_, _, c, w), ref, got in
                zip(pairs[1:], reference_walls[1:], served[1:])
                if "cold" in got and "warm" in got]
    cold = [m[0] for m in measured]
    warm = [m[1] for m in measured]
    cold_cells = [c for job in cold for c in job["cells"]]
    latencies = [c[0] for c in cold_cells]
    context = {
        "measured_pairs": len(measured),
        "cell_latency_samples": len(latencies),
        "setup_samples_s": setups,
        "cells": len(cells),
        "workers": workers,
    }
    if not trace:
        cold_accesses = [
            sum(r["stats"]["scalars"]["amat_accesses"]
                for r in got["cold"].values())
            for *_, got in measured
        ]
        metrics = {
            "setup_s": median(setups),
            "accesses_per_s": sum(cold_accesses)
            / sum(j["total"] for j in cold),
            "peak_rss_mb": peak_rss_mb() + coordinator_rss,
            "job_cold_s": median(j["total"] for j in cold),
            "job_warm_s": median(j["total"] for j in warm),
            "first_cell_s": median(j["cells"][0][0] for j in cold),
            "cell_latency_s_p50": percentile(latencies, 50),
            "cell_latency_s_p90": percentile(latencies, 90),
        }
        metrics.update(sim_summary(panel, FULL, BASE))
        return {"checker": checker, "metrics": metrics, "context": context}

    layers = per_layer_defaults(spec)
    layers.update(summarize_layers(
        per_pass, None, events, traced_walls, untraced_walls, accounting,
        checker, [r for results in panel for r in results]))
    cold_sources = [c[2]["source"] for c in cold_cells]
    warm_sources = [c[2]["source"] for job in warm for c in job["cells"]]
    span_sum = scrape['repro_span_seconds_sum{span="service.job"}']
    span_count = scrape['repro_span_seconds_count{span="service.job"}']
    layers.update({
        "service.submit_s": median(j["submit"] for j in cold + warm),
        "service.queue_wait_s": median(j["queue_wait"] for j in cold + warm),
        "service.plan_s": median(j["plan"] for j in cold + warm),
        "service.delivery_lag_s": median(c[1] for c in cold_cells),
        "service.cell_latency.samples": float(len(latencies)),
        "experiments.cache_hit_ratio.cold":
            cold_sources.count("cache") / len(cold_sources),
        "experiments.cache_hit_ratio.warm":
            warm_sources.count("cache") / len(warm_sources),
        "experiments.cache_cell_s": median(
            (j["last_cell_at"] - j["running"]) / len(cells) for j in warm),
        "experiments.run_cell_overhead_s": median(
            (c["last_cell_at"] - c["plan_at"]) * workers / len(cells) - ref
            for c, _, ref, _ in measured),
        "service.job_span_s": span_sum / span_count,
        "experiments.cache_hits": scrape["repro_service_cache_hits"],
        "experiments.cache_misses": scrape["repro_service_cache_misses"],
        "experiments.cache_puts": scrape["repro_service_cache_puts"],
    })
    context.update(accounting_context(accounting))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json"), {
        "workload": name, "seed": seed,
        "traced_pass_walls_s": traced_walls,
        "untraced_pass_walls_s": untraced_walls,
    })
    return {"checker": checker, "metrics": layers, "context": context}
