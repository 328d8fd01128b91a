"""Experiment harness: one function to run (workload, variant) pairs.

All benchmarks, examples and figures go through
:func:`run_workload`, so every experiment shares the same scaling rules:

* capacities are scaled by ``scale`` (default 512) with all of the
  paper's ratios preserved (see :func:`repro.config.scaled_config`);
* trace lengths default to a laptop-friendly size and can be raised via
  the ``REPRO_RECORDS`` environment variable for higher-fidelity runs;
* thread counts follow the paper's rule (3x cores with context
  switching, == cores otherwise) unless overridden.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import Rule, SimConfig, check_field, scaled_config
from repro.scenarios.library import find_scenario
from repro.scenarios.tracefile import read_meta, read_tracefile, write_tracefile
from repro.sim.stats import SimStats
from repro.sim.system import System
from repro.variants import DesignVariant, get_variant
from repro.workloads.suites import canonical_workload, get_model
from repro.workloads.trace import Trace, TraceRecord

DEFAULT_SCALE = 512
RECORDS_ENV = "REPRO_RECORDS"
#: A run's simulated-time budget: some time, and a finite amount.
_MAX_NS = Rule(above=0)


def default_records() -> int:
    """Trace records per thread: REPRO_RECORDS, or 3000.

    Raises ``ValueError`` naming the variable unless it is a positive
    integer: a run of no records retires nothing.
    """
    raw = os.environ.get(RECORDS_ENV, "").strip() or "3000"
    try:
        records = int(raw)
    except ValueError:
        records = 0
    if records < 1:
        raise ValueError(f"{RECORDS_ENV} must be a positive integer, "
                         f"not {raw!r}")
    return records


@dataclass
class RunResult:
    """Everything a figure needs from one simulation run."""

    workload: str
    variant: str
    threads: int
    stats: SimStats
    config: SimConfig

    @property
    def execution_ns(self) -> float:
        return self.stats.execution_ns

    def speedup_over(self, other: "RunResult") -> float:
        """Throughput ratio of self over ``other`` (same trace workload)."""
        if self.stats.throughput_ipns == 0:
            return 0.0
        return self.stats.throughput_ipns / max(other.stats.throughput_ipns, 1e-12)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form; round-trips losslessly via :meth:`from_dict`.

        This is what worker processes ship back to the orchestrator and
        what the on-disk result cache stores.
        """
        return {
            "workload": self.workload,
            "variant": self.variant,
            "threads": self.threads,
            "stats": self.stats.to_dict(),
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        return cls(
            workload=data["workload"],
            variant=data["variant"],
            threads=int(data["threads"]),
            stats=SimStats.from_dict(data["stats"]),
            config=SimConfig.from_dict(data["config"]),
        )


def build_config(
    scale: int = DEFAULT_SCALE,
    timing: str = "ULL",
    seed: int = 42,
    threads: int = 8,
    cs_threshold_ns: Optional[float] = None,
    t_policy: Optional[str] = None,
    write_log_bytes: Optional[int] = None,
    dram_bytes: Optional[int] = None,
    host_budget_bytes: Optional[int] = None,
    warmup_fraction: float = 0.1,
    ssd_overrides: Optional[Dict[str, object]] = None,
    device_model: Optional[object] = None,
) -> SimConfig:
    """Assemble a scaled config with the common experiment overrides.

    ``ssd_overrides`` passes arbitrary :class:`~repro.config.SSDConfig`
    fields (``prefetch_depth``, ``promotion_threshold``, ...) straight
    through, applied after the named shortcuts above.  ``device_model``
    selects the flash model: a kind string (``"deep"``), a
    :class:`~repro.config.DeviceModelConfig` or a dict of its fields;
    ``None`` keeps the flat default (and the config's serialised form
    byte-identical).  Mappings go through :meth:`SimConfig.replace`, so
    an unknown key is a ``ValueError`` naming its dotted path.
    """
    config = scaled_config(scale=scale, threads=threads, timing=timing, seed=seed)
    ssd: Dict[str, object] = {}
    if dram_bytes is not None:
        ssd["dram_bytes"] = dram_bytes
        # Keep the paper's 1:7 log:cache split unless told otherwise.
        if write_log_bytes is None:
            ssd["write_log_bytes"] = max(dram_bytes // 8, 4096)
    if write_log_bytes is not None:
        ssd["write_log_bytes"] = write_log_bytes
    ssd.update(ssd_overrides or {})
    changes: Dict[str, object] = {"warmup_fraction": warmup_fraction,
                                  "ssd": ssd}
    os_fields = {"cs_threshold_ns": cs_threshold_ns, "t_policy": t_policy}
    changes["os"] = {k: v for k, v in os_fields.items() if v is not None}
    if host_budget_bytes is not None:
        changes["cpu"] = {"host_promote_budget_bytes": host_budget_bytes}
    if device_model is not None:
        changes["device_model"] = ({"kind": device_model}
                                   if isinstance(device_model, str)
                                   else device_model)
    return config.replace(**changes)


#: Memoized per-thread traces and MLP per generation key.  Trace
#: synthesis is deterministic in ``(workload, records, scale, seed, tid)``
#: and, when the footprint is partitioned, the thread count; traces are
#: never mutated (windows slice their packed ops), so sweep cells that
#: differ only in design variant or thread count share one generated
#: copy, along with the window plans cached on it.  An entry keeps the
#: traces of threads ``0..n-1``; a request for more threads generates
#: only the missing ones.
_TRACE_MEMO: "OrderedDict[Tuple, Tuple[List[Trace], int]]" = OrderedDict()
_TRACE_MEMO_MAX = 16
#: Guards the memo's check-then-act updates: ``repro serve --max-active
#: N`` at the default ``--jobs 1`` runs N jobs' cells in process, on N
#: driver threads, and report jobs also call :func:`_traces_for` on
#: their job threads from the fig5/fig6 and channel-occupancy figures.
#: Generation runs outside it, and two threads that generate the same
#: key produce equal traces.
_TRACE_MEMO_LOCK = threading.Lock()


def _traces_for(
    workload: str, threads: int, records: int, scale: int, seed: int
) -> Tuple[List[Trace], int]:
    """Per-thread traces and the workload's MLP, for a Table I name
    (seed model) or a scenario name (phase DSL).

    Memoized (bounded LRU).  Thread ``t``'s trace is the same at every
    thread count unless the workload partitions its footprint (``radix``,
    ``analytics-scan``, ``tab1-radix``), so only those are keyed by the
    thread count.
    """
    generate, mlp, _ = _trace_source(workload, scale, seed)
    key = trace_key(workload, threads, records, scale, seed)
    with _TRACE_MEMO_LOCK:
        hit = _TRACE_MEMO.get(key)
    traces = hit[0] if hit is not None else []
    if len(traces) < threads:
        # A new list, not an in-place extend: another thread may be
        # reading the cached one.
        traces = traces + generate(
            threads, records, range(len(traces), threads)
        )
    with _TRACE_MEMO_LOCK:
        cached = _TRACE_MEMO.get(key)
        if cached is None or len(cached[0]) < len(traces):
            _TRACE_MEMO[key] = (traces, mlp)
        _TRACE_MEMO.move_to_end(key)
        while len(_TRACE_MEMO) > _TRACE_MEMO_MAX:
            _TRACE_MEMO.popitem(last=False)
    return traces[:threads], mlp


def trace_key(
    workload: str, threads: int, records: int, scale: int, seed: int
) -> Tuple:
    """The trace memo's key for one run's traces.

    ``threads`` is part of it only when the workload partitions its
    footprint; otherwise runs at every thread count share one entry.
    Sweep dispatch groups cells by it
    (:class:`~repro.experiments.backends.CellQueue`), so a runner that
    takes a whole group synthesizes its traces once.
    """
    partitioned = _trace_source(workload, scale, seed)[2]
    return (workload, records, scale, seed, threads if partitioned else None)


def cell_trace_key(workload: str, variant: str, **kwargs: object
                   ) -> Optional[Tuple]:
    """:func:`trace_key` of the run :func:`run_workload` makes with these
    arguments; None for a ``.sbt`` replay, which reads no memo."""
    if kwargs.get("trace") is not None:
        return None
    config, records = resolve_run(workload, variant, **kwargs)
    return trace_key(workload, config.threads, records,
                     int(kwargs.get("scale", DEFAULT_SCALE)),
                     int(kwargs.get("seed", 42)))


def _trace_source(
    workload: str, scale: int, seed: int
) -> Tuple[Callable[[int, int, Sequence[int]], List[Trace]], int, bool]:
    """``(generate(threads, records, tids), mlp, partitioned)`` for a
    Table I name or a scenario name.  Generation goes through
    :meth:`WorkloadModel.generate` or :meth:`Scenario.generate`."""
    try:
        name = canonical_workload(workload)
    except KeyError:
        scenario = find_scenario(workload)
        if scenario is None:
            from repro.scenarios.library import scenario_names
            from repro.workloads.suites import TABLE_I

            raise KeyError(
                f"unknown workload or scenario {workload!r}; workloads: "
                f"{sorted(TABLE_I)}; scenarios: {scenario_names()}"
            ) from None

        def generate_scenario(threads, records, tids):
            return scenario.generate(threads, records, scale=scale,
                                     seed=seed, tids=tids)

        return (generate_scenario, scenario.mlp,
                scenario.depends_on_thread_count)
    model = get_model(name, scale=scale, seed=seed)
    return model.generate, model.spec.mlp, model.spec.partitioned


def resolve_run(
    workload: str,
    variant: str,
    *,
    scale: int = DEFAULT_SCALE,
    records_per_thread: Optional[int] = None,
    threads: Optional[int] = None,
    timing: str = "ULL",
    seed: int = 42,
    cs_threshold_ns: Optional[float] = None,
    t_policy: Optional[str] = None,
    write_log_bytes: Optional[int] = None,
    dram_bytes: Optional[int] = None,
    host_budget_bytes: Optional[int] = None,
    warmup_fraction: float = 0.1,
    max_ns: Optional[float] = None,
    ssd_overrides: Optional[Dict[str, object]] = None,
    device_model: Optional[object] = None,
    trace: Optional[str] = None,
) -> Tuple[SimConfig, int]:
    """Resolve the exact ``(config, records_per_thread)`` a
    :func:`run_workload` call with these arguments would simulate.

    Shared by :func:`run_workload` and the orchestrator's cache keying so
    the key always reflects the *resolved* configuration (thread defaults,
    REPRO_RECORDS, capacity ratios), never the raw argument spelling.
    ``max_ns`` is accepted (so a job's kwargs can be splatted directly)
    but does not influence the config.

    ``trace`` replays a ``.sbt`` tracefile: the configuration embedded at
    capture/generation time is authoritative (so replay is bit-exact) and
    the other configuration arguments are ignored.

    Every cell is checked here, before it is keyed or run: a
    ``ValueError`` names the bad argument or config field
    (:meth:`SimConfig.validate`), ``records_per_thread`` below 1 and
    ``max_ns`` not a finite positive number included.
    """
    if max_ns is not None:
        check_field(max_ns, float, _MAX_NS, "max_ns")
    if trace is not None:
        meta = read_meta(trace)
        if "config" not in meta:
            raise ValueError(
                f"tracefile {trace!r} has no embedded config; it was not "
                f"written by 'repro trace gen/capture' and cannot be "
                f"replayed as a sweep cell"
            )
        try:
            config = SimConfig.from_dict(meta["config"]).validate()
        except ValueError as exc:
            raise ValueError(f"tracefile {trace!r}: embedded config: "
                             f"{exc}") from None
        return config, int(meta.get("records_per_thread") or 0)
    design: DesignVariant = get_variant(variant)
    if records_per_thread is None:
        records_per_thread = default_records()
    # A zero-length run "succeeds" with execution_ns 0, and would be
    # cached, served and plotted as a result.
    if records_per_thread < 1:
        raise ValueError(f"records_per_thread must be at least 1, "
                         f"not {records_per_thread}")
    base = build_config(
        scale=scale,
        timing=timing,
        seed=seed,
        cs_threshold_ns=cs_threshold_ns,
        t_policy=t_policy,
        write_log_bytes=write_log_bytes,
        dram_bytes=dram_bytes,
        host_budget_bytes=host_budget_bytes,
        warmup_fraction=warmup_fraction,
        ssd_overrides=ssd_overrides,
        device_model=device_model,
    )
    if threads is None:
        threads = design.default_threads(base.cpu.cores)
    return base.replace(threads=threads).validate(), records_per_thread


def run_workload(
    workload: str,
    variant: str,
    *,
    scale: int = DEFAULT_SCALE,
    records_per_thread: Optional[int] = None,
    threads: Optional[int] = None,
    timing: str = "ULL",
    seed: int = 42,
    cs_threshold_ns: Optional[float] = None,
    t_policy: Optional[str] = None,
    write_log_bytes: Optional[int] = None,
    dram_bytes: Optional[int] = None,
    host_budget_bytes: Optional[int] = None,
    warmup_fraction: float = 0.1,
    max_ns: Optional[float] = None,
    ssd_overrides: Optional[Dict[str, object]] = None,
    device_model: Optional[object] = None,
    trace: Optional[str] = None,
    timeline: Optional[str] = None,
) -> RunResult:
    """Simulate one (workload, design) pair and return its stats.

    ``workload`` names a Table I application or a registered scenario
    (see :mod:`repro.scenarios.library`).  ``trace`` replays a ``.sbt``
    tracefile instead of generating traces: the file's embedded config,
    thread count and MLP are used, making replay bit-exact on every
    backend.

    ``timeline`` writes a Chrome-trace-event/Perfetto JSON of the run to
    the given path (``docs/OBSERVABILITY.md``).  It enables sim-time
    tracing on the config, which leaves the simulation itself unchanged;
    timelined runs bypass the result cache (the orchestrator never
    passes ``timeline``), so cache keys are unaffected.
    """
    design: DesignVariant = get_variant(variant)
    config, records_per_thread = resolve_run(
        workload,
        variant,
        scale=scale,
        records_per_thread=records_per_thread,
        threads=threads,
        timing=timing,
        seed=seed,
        cs_threshold_ns=cs_threshold_ns,
        t_policy=t_policy,
        write_log_bytes=write_log_bytes,
        dram_bytes=dram_bytes,
        host_budget_bytes=host_budget_bytes,
        warmup_fraction=warmup_fraction,
        max_ns=max_ns,
        ssd_overrides=ssd_overrides,
        device_model=device_model,
        trace=trace,
    )
    if trace is not None:
        meta, traces = read_tracefile(trace)
        mlp = int(meta.get("mlp") or 8)
    else:
        traces, mlp = _traces_for(
            workload, config.threads, records_per_thread, scale, seed
        )
    if timeline is not None:
        config = config.replace(trace={"enabled": True})
    system = System(config, traces, design, workload_mlp=mlp)
    stats = system.run(max_ns=max_ns)
    if timeline is not None and system.tracer is not None:
        system.tracer.write(timeline)
    system.close()
    return RunResult(
        workload=workload,
        variant=variant,
        threads=len(traces),
        stats=stats,
        config=system.config,
    )


def capture_workload(
    workload: str,
    variant: str,
    out_path: str,
    **kwargs: object,
) -> RunResult:
    """Run one cell while capturing the consumed trace to ``out_path``.

    The capture tap sits on the live simulation's thread contexts (each
    record is recorded the first time a core fetches it), and the
    tracefile embeds the resolved config, so ``repro trace replay`` on
    the file reproduces this run's stats bit-exactly.
    """
    design: DesignVariant = get_variant(variant)
    config, records_per_thread = resolve_run(workload, variant, **kwargs)
    max_ns = kwargs.pop("max_ns", None)
    scale = int(kwargs.get("scale", DEFAULT_SCALE))
    seed = int(kwargs.get("seed", 42))
    traces, mlp = _traces_for(
        workload, config.threads, records_per_thread, scale, seed
    )
    system = System(config, traces, design, workload_mlp=mlp)
    captured: List[List[TraceRecord]] = [[] for _ in traces]
    for thread in system.threads:
        thread.on_fetch = captured[thread.tid].append
    stats = system.run(max_ns=max_ns)
    meta = {
        "kind": "capture",
        "workload": workload,
        "variant": variant,
        "seed": seed,
        "scale": scale,
        "threads": len(traces),
        "records_per_thread": records_per_thread,
        "mlp": mlp,
        "config": config.to_dict(),
    }
    write_tracefile(out_path, captured, meta)
    return RunResult(
        workload=workload,
        variant=variant,
        threads=len(traces),
        stats=stats,
        config=system.config,
    )
