"""The always-on sweep coordinator behind ``python -m repro serve``.

:class:`SweepService` turns the one-shot CLI orchestration into
infrastructure: it owns a persistent :class:`~repro.service.store.JobStore`
(submissions survive coordinator crashes), a shared
:class:`~repro.experiments.orchestrator.ResultCache`, and -- optionally -- one
long-lived distributed backend (a listener ``repro worker --connect``
workers dial in to), then runs submitted jobs through the job spec
module the CLI verbs use (:mod:`repro.experiments.jobspec`).
Reliability semantics are therefore unchanged: the per-cell
:class:`~repro.experiments.backends.CellPolicy` (timeouts, retry
budgets, quarantine) governs service sweeps the same way it governs
``repro sweep``.

Job kinds and their JSON ``spec`` keys (all optional unless noted),
checked at submit by :func:`~repro.experiments.jobspec.parse_spec`: an
unknown key, a wrong type, an out-of-range value or an unknown name is
an HTTP 400 naming the field, never a queued job that fails later.

``sweep``
    ``workloads``, ``scenarios``, ``variants``; the cell fields
    ``records``, ``threads``, ``scale`` (at least 1), ``seed`` (at
    least 0), ``timing`` (``ULL``/``ULL2``/``SLC``/``MLC``) and
    ``device_model`` (``flat``/``deep``); ``jobs``.  Planned like
    ``repro sweep``; the result is its ``--output`` JSON, so artifacts
    are byte-comparable against local runs.
``scenario``
    ``names`` (required; or ``scenarios``), ``variants``, the cell
    fields and ``jobs``: a sweep over phase-DSL scenarios only.
``report``
    ``figures``, ``workloads``, ``records``, ``jobs``: ``repro
    report``'s figures loop, rendered into the job's artifact directory
    under ``<state_dir>/artifacts/``.

Scheduling is the store's: priority first, fair share across
submitters, FIFO.  ``max_active`` bounds concurrently running jobs
(default 1 -- the worker fleet is a shared resource; a sweep already
parallelizes internally).  Progress is appended to the store's event
log as ``cell`` events, which the HTTP API serves as polls or NDJSON
streams.
"""

from __future__ import annotations

import contextlib
import json
import threading
import traceback
from pathlib import Path
from typing import Dict, Iterator, List, Optional, TextIO, Union

from repro.experiments.backends import (
    CellPolicy,
    DistributedBackend,
    SweepBackend,
    resolve_backend,
)
from repro.experiments.jobspec import (
    KIND_KEYS,
    JobSpec,
    cell_event,
    parse_spec,
    plan_sweep,
    run_figures,
    sweep_payload,
)
from repro.experiments.orchestrator import ResultCache, default_jobs, drain_sweep
from repro.obs import REGISTRY, span
from repro.obs.log import JsonLinesLogger
from repro.obs.spans import SpanContext, activate, deactivate
from repro.service.store import JobStore


class JobCancelled(BaseException):
    """Raised from a job's progress callback to stop it; not an
    :class:`Exception`, so no handler takes it for a failed figure."""


class SweepService:
    """The long-lived coordinator: claims queued jobs and runs them.

    Use as a context manager or call :meth:`start` / :meth:`close`.
    ``state_dir`` holds the sqlite job queue and per-job artifact
    directories; ``cache_dir`` the result cache shared by every job
    (and by any ``repro sweep`` on this host pointed at the same
    directory).  ``listen`` binds one shared :class:`DistributedBackend`
    for dial-in workers; without it, each job runs its cells on a
    local backend of its own (``jobs`` kept cell processes, or in
    process at 1), closed when the job ends.
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
        # Checked here, so a bad spec is a 400 and never a queued job
        # that fails later; names and ranges only, no per-cell config.
        parse_spec(kind, spec)
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
                # A job queued before submit checked specs may carry
                # keys its kind ignores; they are dropped.
                kind = str(job["kind"])
                spec = parse_spec(kind, {k: v for k, v in job["spec"].items()
                                         if k in KIND_KEYS.get(kind, ())})
                if spec.kind == "report":
                    result = self._run_report_job(job_id, spec)
                else:
                    result = self._run_sweep_job(job_id, spec)
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

    @contextlib.contextmanager
    def _job_backend(self, jobs: int) -> Iterator[SweepBackend]:
        """The backend one job runs on: the shared listener (one job at
        a time), else a local backend of its own, closed at its end."""
        if self._backend is not None:
            with self._backend_lock:
                yield self._backend
            return
        backend = resolve_backend(None, jobs=jobs, policy=self.policy)
        try:
            yield backend
        finally:
            backend.close()

    def _run_sweep_job(self, job_id: int, spec: JobSpec) -> Dict[str, object]:
        """One sweep/scenario job: ``repro sweep``'s planner, runner and
        payload.

        The result payload replicates ``repro sweep --output`` exactly
        (sans the per-process cache counters): the CI smoke compares
        the two byte-for-byte.
        """
        cells = plan_sweep(spec)
        jobs = spec.jobs or self.jobs or default_jobs()
        self.store.add_event(job_id, {
            "event": "plan", "cells": len(cells),
            "workloads": list(spec.workloads),
            "variants": list(spec.variants),
            "records_per_thread": spec.cell["records"],
            "backend": self.backend_label,
        })
        self._check_cancel(job_id)

        def on_cell(update) -> None:
            self.store.add_event(job_id, cell_event(update))
            self._check_cancel(job_id)

        with self._job_backend(jobs) as backend:
            results = drain_sweep(cells, on_cell, jobs=jobs,
                                  cache=self.cache, backend=backend,
                                  policy=self.policy)
        payload = sweep_payload(spec, jobs, self.backend_label, results)
        artifact = self.artifact_dir(job_id)
        artifact.mkdir(parents=True, exist_ok=True)
        (artifact / "results.json").write_text(json.dumps(payload, indent=2))
        return payload

    def _run_report_job(self, job_id: int, spec: JobSpec) -> Dict[str, object]:
        """One report job: ``repro report``'s one sweep and figures,
        rendered into the job's artifact directory."""
        from repro.figures.report import ReportBuilder  # lazy: heavy import

        def event(record: Dict[str, object]) -> None:
            self.store.add_event(job_id, record)
            self._check_cancel(job_id)

        class JobReport(ReportBuilder):
            """The report, plus a job event per cell and per figure."""

            def cell_completed(self, job, source: str) -> None:
                super().cell_completed(job, source)
                event({"event": "cell", "workload": job.workload,
                       "variant": job.variant, "source": source})

            def figure_finished(self, figure: str, data: object) -> None:
                super().figure_finished(figure, data)
                event({"event": "figure", "name": figure, "state": "done"})

            def figure_failed(self, figure: str, error: str) -> None:
                super().figure_failed(figure, error)
                event({"event": "figure", "name": figure, "state": "failed"})

        out_dir = self.artifact_dir(job_id)
        builder = JobReport(out_dir, list(spec.figures))  # makes out_dir
        self._check_cancel(job_id)
        try:
            with self._job_backend(spec.jobs or self.jobs) as backend:
                failures = run_figures(spec, out_dir, builder, backend=backend,
                                       cache=self.cache, policy=self.policy)
        finally:
            builder.render()
        if failures:
            raise RuntimeError(
                f"{len(failures)} figure(s) failed: {', '.join(failures)} "
                f"(see {out_dir / 'REPORT.md'})"
            )
        return {
            "figures": list(spec.figures),
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
