"""The always-on sweep coordinator behind ``python -m repro serve``.

:class:`SweepService` turns the one-shot CLI orchestration into
infrastructure: it owns a persistent :class:`~repro.service.store.JobStore`
(submissions survive coordinator crashes), a shared
:class:`~repro.experiments.orchestrator.ResultCache`, and -- optionally -- one
long-lived distributed backend (a listener ``repro worker --connect``
workers dial in to), then runs submitted jobs through the
exact ``stream_sweep`` machinery the CLI uses.  Reliability semantics
are therefore unchanged: the per-cell
:class:`~repro.experiments.backends.CellPolicy` (timeouts, retry
budgets, quarantine) governs service sweeps the same way it governs
``repro sweep``.

Job kinds and their ``spec`` objects:

``sweep``
    ``{"workloads": [...], "scenarios": [...], "variants": [...],
    "records": N, "threads": N, "scale": N, "timing": "...",
    "seed": N}`` -- all optional, defaulted exactly like ``repro
    sweep``.  The stored result payload matches ``repro sweep
    --output``'s JSON shape, so artifacts are byte-comparable against
    local runs.
``scenario``
    sugar for a sweep over phase-DSL scenarios only: ``{"names":
    [...]}`` plus the same optional knobs.
``report``
    ``{"figures": [...], "workloads": [...], ...}`` -- renders
    REPORT.md/REPORT.html + SVGs into the job's artifact directory
    under ``<state_dir>/artifacts/``.

Scheduling is the store's: priority first, fair share across
submitters, FIFO.  ``max_active`` bounds concurrently running jobs
(default 1 -- the worker fleet is a shared resource; a sweep already
parallelizes internally).  Progress is appended to the store's event
log as ``cell`` events, which the HTTP API serves as polls or NDJSON
streams.
"""

from __future__ import annotations

import json
import threading
import traceback
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Union

from repro.experiments.backends import (
    CellPolicy,
    DistributedBackend,
    LocalProcessBackend,
)
from repro.experiments.orchestrator import (
    ResultCache,
    default_jobs,
    stream_sweep,
    sweep_product,
)
from repro.experiments.runner import default_records
from repro.obs import REGISTRY, span
from repro.obs.log import JsonLinesLogger
from repro.obs.spans import SpanContext, activate, deactivate
from repro.service.store import JobStore

#: Job kinds :class:`SweepService` executes.
JOB_KINDS = ("sweep", "scenario", "report")


class JobCancelled(Exception):
    """Raised inside a job executor when its cancel flag is set."""


class SweepService:
    """The long-lived coordinator: claims queued jobs and runs them.

    Use as a context manager or call :meth:`start` / :meth:`close`.
    ``state_dir`` holds the sqlite job queue and per-job artifact
    directories; ``cache_dir`` the result cache shared by every job
    (and by any ``repro sweep`` on this host pointed at the same
    directory).  ``listen`` binds one shared :class:`DistributedBackend`
    for dial-in workers; without it, each job runs its cells on a
    :class:`LocalProcessBackend` of its own (``jobs`` kept cell
    processes, or in process at 1), closed when the job ends.
    """

    def __init__(
        self,
        state_dir: Union[str, Path] = ".repro_service",
        cache_dir: Optional[Union[str, Path]] = None,
        cache_max_bytes: Optional[int] = None,
        listen: Optional[str] = None,
        jobs: Optional[int] = None,
        policy: Optional[CellPolicy] = None,
        max_active: int = 1,
        log: Optional[TextIO] = None,
    ) -> None:
        # Bind first: a bad or busy listen address fails before any
        # state or cache directory is created.
        self._backend: Optional[DistributedBackend] = (
            DistributedBackend(listen=listen, policy=policy) if listen
            else None)
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.store = JobStore(self.state_dir / "jobs.sqlite3")
        self.cache = ResultCache(cache_dir, max_bytes=cache_max_bytes)
        self.jobs = jobs
        self.policy = policy
        self.max_active = max(1, int(max_active))
        self._log = log
        #: Serializes sweeps onto the shared distributed backend: its
        #: listener is a single-sweep-at-a-time resource.  Local-backend
        #: jobs run without it.
        self._backend_lock = threading.Lock()
        self._stop = threading.Event()
        self._schedulers: List[threading.Thread] = []
        self._logger = (JsonLinesLogger("serve", stream=log)
                        if log is not None else None)
        #: job_id -> submitter's trace context (from the HTTP API's
        #: ``X-Repro-Trace`` header), adopted when the job runs so
        #: coordinator- and worker-side spans correlate.  In-memory
        #: only: a context outliving a coordinator restart has no
        #: client waiting on it.
        self._traces: Dict[int, SpanContext] = {}

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "SweepService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _say(self, event: str, **fields: object) -> None:
        if self._logger is not None:
            self._logger.info(event, **fields)

    def start(self) -> None:
        if self._schedulers:
            return
        requeued = self.store.requeue_running()
        if requeued:
            self._say("jobs_requeued_at_startup", jobs=list(requeued))
        for i in range(self.max_active):
            thread = threading.Thread(
                target=self._scheduler_loop, name=f"serve-scheduler-{i}",
                daemon=True,
            )
            thread.start()
            self._schedulers.append(thread)

    def close(self) -> None:
        self._stop.set()
        # Closing the store releases schedulers blocked waiting for work.
        self.store.close()
        for thread in self._schedulers:
            thread.join(timeout=10.0)
        self._schedulers = []
        if self._backend is not None:
            self._backend.close()
        self.cache.close()

    @property
    def backend_label(self) -> str:
        if self._backend is not None:
            return self._backend.describe()
        return f"local[jobs={self.jobs or default_jobs()}]"

    # -- submission convenience (the HTTP API calls these) ---------------

    def submit(
        self,
        kind: str,
        spec: Dict[str, object],
        submitter: str = "anonymous",
        priority: int = 0,
        trace: Optional[SpanContext] = None,
    ) -> int:
        if kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {kind!r} (expected one of "
                f"{', '.join(JOB_KINDS)})"
            )
        if not isinstance(spec, dict):
            raise ValueError("job spec must be a JSON object")
        job_id = self.store.submit(kind, spec, submitter=submitter,
                                   priority=priority)
        if trace is not None:
            self._traces[job_id] = trace
        REGISTRY.counter("repro_service_jobs_submitted_total",
                         "jobs accepted by the service",
                         kind=kind).inc()
        self._say("job_queued", job=job_id, kind=kind,
                  submitter=submitter, priority=priority)
        return job_id

    def artifact_dir(self, job_id: int) -> Path:
        return self.state_dir / "artifacts" / f"job-{job_id}"

    # -- scheduling ------------------------------------------------------

    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            seen = self.store.version
            job = self.store.claim_next()
            if job is not None:
                self._run_job(job)
            elif not self.store.wait_for_change(seen):
                return

    def _run_job(self, job: Dict[str, object]) -> None:
        job_id = int(job["id"])
        self._say("job_started", job=job_id, kind=job["kind"])
        self.store.add_event(job_id, {"event": "state", "state": "running"})
        # Adopt the submitter's trace context (if the HTTP API captured
        # one) so this job's spans -- and via the shared backend, the
        # per-cell contexts shipped to workers -- correlate with it.
        token = None
        trace = self._traces.pop(job_id, None)
        if trace is not None:
            token = activate(trace)
        try:
            with span("service.job", kind=str(job["kind"]), job=job_id):
                if job["kind"] in ("sweep", "scenario"):
                    result = self._run_sweep_job(job_id, job["kind"],
                                                 job["spec"])
                else:
                    result = self._run_report_job(job_id, job["spec"])
        except JobCancelled:
            self.store.mark_cancelled(job_id)
            self._say("job_cancelled", job=job_id)
        except Exception:  # noqa: BLE001 - recorded on the job, queue survives
            error = traceback.format_exc()
            self.store.fail(job_id, error)
            self._say("job_failed", job=job_id,
                      error=error.splitlines()[-1])
        else:
            self.store.finish(job_id, result)
            self._say("job_done", job=job_id)
        finally:
            if token is not None:
                deactivate(token)

    def _check_cancel(self, job_id: int) -> None:
        if self._stop.is_set():
            # Coordinator shutdown mid-job: the job goes back to queued
            # on the next startup (requeue_running), not to failed.
            raise JobCancelled("coordinator shutting down")
        if self.store.cancel_requested(job_id):
            raise JobCancelled(f"job {job_id} cancelled")

    # -- executors -------------------------------------------------------

    def _run_sweep_job(
        self, job_id: int, kind: str, spec: Dict[str, object]
    ) -> Dict[str, object]:
        """One sweep/scenario job, via the CLI's own grid + stream path.

        The result payload replicates ``repro sweep --output`` exactly
        (sans the per-process cache counters): the CI smoke compares
        the two byte-for-byte.
        """
        from repro.scenarios import canonical_scenario
        from repro.variants import MAIN_VARIANTS, canonical_variant
        from repro.workloads.suites import WORKLOAD_NAMES, canonical_workload

        if kind == "scenario":
            names = spec.get("names") or spec.get("scenarios") or []
            if not names:
                raise ValueError("scenario job needs names: [...]")
            workloads = [canonical_scenario(str(s)) for s in names]
        else:
            scenarios = [canonical_scenario(str(s))
                         for s in spec.get("scenarios") or []]
            workloads = [canonical_workload(str(w))
                         for w in spec.get("workloads") or []]
            if not workloads and not scenarios:
                workloads = list(WORKLOAD_NAMES)
            workloads += scenarios
        variants = [canonical_variant(str(v))
                    for v in spec.get("variants") or MAIN_VARIANTS]
        records = int(spec.get("records") or default_records())
        jobs = int(spec["jobs"]) if spec.get("jobs") else (
            self.jobs if self.jobs is not None else default_jobs())
        specs = sweep_product(
            workloads,
            variants,
            records_per_thread=records,
            threads=spec.get("threads"),
            scale=spec.get("scale"),
            timing=spec.get("timing"),
            seed=spec.get("seed"),
        )
        self.store.add_event(job_id, {
            "event": "plan", "cells": len(specs), "workloads": workloads,
            "variants": variants, "records_per_thread": records,
            "backend": self.backend_label,
        })
        self._check_cancel(job_id)
        results = [None] * len(specs)
        if self._backend is not None:
            with self._backend_lock:
                self._stream(job_id, specs, results, self._backend, jobs)
        else:
            self._stream(job_id, specs, results, None, jobs)
        payload = {
            "workloads": workloads,
            "variants": variants,
            "records_per_thread": records,
            "jobs": jobs,
            "backend": self.backend_label,
            "results": [r.to_dict() for r in results],
        }
        artifact = self.artifact_dir(job_id)
        artifact.mkdir(parents=True, exist_ok=True)
        (artifact / "results.json").write_text(json.dumps(payload, indent=2))
        return payload

    def _stream(self, job_id, specs, results, backend, jobs) -> None:
        """Drain one stream_sweep, recording a ``cell`` event per cell."""
        stream = stream_sweep(specs, jobs=jobs, cache=self.cache,
                              backend=backend, policy=self.policy)
        try:
            for update in stream:
                for i in update.positions:
                    results[i] = update.result
                r = update.result
                self.store.add_event(job_id, {
                    "event": "cell",
                    "workload": r.workload,
                    "variant": r.variant,
                    "source": update.source,
                    "completed": update.completed,
                    "total": update.total,
                    "exec_ms": r.stats.execution_ns / 1e6,
                    "ipns": r.stats.throughput_ipns,
                })
                self._check_cancel(job_id)
        finally:
            # On cancel/shutdown: stop consuming; the helper thread
            # drains in the background and finished cells are already
            # in the cache (a resubmission fast-forwards through them).
            stream.close()

    def _run_report_job(
        self, job_id: int, spec: Dict[str, object]
    ) -> Dict[str, object]:
        """One report job: figure drivers + SVG/markdown rendering."""
        from repro.cli import FIGURES, _figure_kwargs  # lazy: heavy import
        from repro.figures.report import ReportBuilder
        import argparse

        names = [str(n) for n in spec.get("figures") or []] or sorted(FIGURES)
        unknown = [n for n in names if n not in FIGURES]
        if unknown:
            raise ValueError(f"unknown figure(s): {', '.join(unknown)}")
        out_dir = self.artifact_dir(job_id)
        out_dir.mkdir(parents=True, exist_ok=True)
        builder = ReportBuilder(out_dir, names)
        args = argparse.Namespace(
            workloads=[str(w) for w in spec.get("workloads") or []] or None,
            records=spec.get("records"),
            jobs=int(spec["jobs"]) if spec.get("jobs") else self.jobs,
            no_cache=False,
            cache_dir=None,
            cache_max_bytes=None,
            cell_timeout=(self.policy.cell_timeout
                          if self.policy is not None else None),
            retry_budget=(self.policy.retry_budget
                          if self.policy is not None else None),
        )

        def progress(job, source) -> None:
            builder.cell_completed(job, source)
            self.store.add_event(job_id, {
                "event": "cell", "workload": job.workload,
                "variant": job.variant, "source": source,
            })
            self._check_cancel(job_id)

        failures: List[str] = []
        if self._backend is not None:
            backend = self._backend
            self._backend_lock.acquire()
        else:
            backend = LocalProcessBackend(args.jobs)
        try:
            for name in names:
                self._check_cancel(job_id)
                fn = FIGURES[name]
                builder.figure_started(name)
                kwargs = _figure_kwargs(fn, args, backend, cache=self.cache,
                                        progress=progress)
                try:
                    data = fn(**kwargs)
                    (out_dir / f"{name}.json").write_text(
                        json.dumps(data, indent=2, default=str)
                    )
                    builder.figure_finished(name, data)
                except JobCancelled:
                    raise
                except Exception:  # noqa: BLE001 - recorded per figure
                    builder.figure_failed(name, traceback.format_exc())
                    failures.append(name)
                self.store.add_event(job_id, {
                    "event": "figure", "name": name,
                    "state": "failed" if name in failures else "done",
                })
        finally:
            if backend is self._backend:
                self._backend_lock.release()
            else:
                backend.close()
            builder.render()
        if failures:
            raise RuntimeError(
                f"{len(failures)} figure(s) failed: {', '.join(failures)} "
                f"(see {out_dir / 'REPORT.md'})"
            )
        return {
            "figures": names,
            "out_dir": str(out_dir),
            "report_md": str(out_dir / "REPORT.md"),
            "report_html": str(out_dir / "REPORT.html"),
        }

    # -- introspection (the HTTP API reads these) ------------------------

    def status(self) -> Dict[str, object]:
        return {
            "backend": self.backend_label,
            "max_active": self.max_active,
            "state_dir": str(self.state_dir),
            "cache": self.cache.stats(),
            "jobs": self.store.counts(),
        }

    def publish_metrics(self) -> None:
        """Refresh the service gauges in the global metrics registry.

        Called per ``/metrics`` scrape: gauges are point-in-time reads
        of the store and cache, so sampling them at scrape time keeps
        the registry honest without a background sampler thread.
        """
        for state, count in self.store.counts().items():
            REGISTRY.gauge("repro_service_jobs",
                           "jobs in the store by state",
                           state=state).set(count)
        stats = self.cache.stats()
        for key in ("entries", "size_bytes", "hits", "misses", "puts",
                    "evictions"):
            if key in stats:
                REGISTRY.gauge(f"repro_service_cache_{key}",
                               f"result cache {key}").set(
                    float(stats[key]))
        REGISTRY.gauge("repro_service_max_active",
                       "concurrent job slots").set(self.max_active)
        if self._backend is not None:
            REGISTRY.gauge(
                "repro_service_remote_cache_hits",
                "sweep cells answered from worker-side caches",
            ).set(self._backend.remote_cache_hits)
