"""Experiment harness: one function to run (workload, variant) pairs.

All benchmarks, examples and figure drivers go through
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
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import DeviceModelConfig, SimConfig, scaled_config
from repro.scenarios.library import find_scenario
from repro.scenarios.tracefile import read_meta, read_tracefile, write_tracefile
from repro.sim.stats import SimStats
from repro.sim.system import System
from repro.variants import DesignVariant, get_variant
from repro.workloads.suites import canonical_workload, get_model
from repro.workloads.trace import TraceRecord

DEFAULT_SCALE = 512


def default_records() -> int:
    """Trace records per thread; override with REPRO_RECORDS."""
    return int(os.environ.get("REPRO_RECORDS", "3000"))


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

    @property
    def throughput(self) -> float:
        return self.stats.throughput_ipns

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


def resolve_device_model(spec: object) -> DeviceModelConfig:
    """Normalise a device-model spec: a :class:`DeviceModelConfig`, a
    kind string (``"deep"``), or a dict of config fields."""
    if isinstance(spec, DeviceModelConfig):
        return spec
    if isinstance(spec, str):
        return DeviceModelConfig(kind=spec)
    return DeviceModelConfig.from_dict(dict(spec))


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
    selects the flash model: a kind string (``"deep"``) or a dict of
    :class:`~repro.config.DeviceModelConfig` fields; ``None`` keeps the
    flat default (and the config's serialised form byte-identical).
    """
    config = scaled_config(scale=scale, threads=threads, timing=timing, seed=seed)
    config = config.replace(warmup_fraction=warmup_fraction)
    ssd_fields: Dict[str, object] = {}
    if dram_bytes is not None:
        ssd_fields["dram_bytes"] = dram_bytes
        # Keep the paper's 1:7 log:cache split unless told otherwise.
        if write_log_bytes is None:
            ssd_fields["write_log_bytes"] = max(dram_bytes // 8, 4096)
    if write_log_bytes is not None:
        ssd_fields["write_log_bytes"] = write_log_bytes
    if ssd_overrides:
        ssd_fields.update(ssd_overrides)
    if ssd_fields:
        config = config.with_ssd(**ssd_fields)
    os_overrides: Dict[str, object] = {}
    if cs_threshold_ns is not None:
        os_overrides["cs_threshold_ns"] = cs_threshold_ns
    if t_policy is not None:
        os_overrides["t_policy"] = t_policy
    if os_overrides:
        config = config.with_os(**os_overrides)
    if host_budget_bytes is not None:
        config = config.with_cpu(host_promote_budget_bytes=host_budget_bytes)
    if device_model is not None:
        config = config.replace(device_model=resolve_device_model(device_model))
    return config


#: Memoized (traces, mlp) per resolved generation key.  Trace synthesis
#: is deterministic in ``(workload, threads, records, scale, seed)`` and
#: consumers never mutate the record lists (windows copy slices out of
#: them), so sweep cells that differ only in design variant share
#: one generated trace instead of re-running the per-record synthesis.
_TRACE_MEMO: "OrderedDict[Tuple, Tuple[List[List[TraceRecord]], int]]" = (
    OrderedDict()
)
_TRACE_MEMO_MAX = 16


def _traces_for(
    workload: str, threads: int, records: int, scale: int, seed: int
) -> Tuple[List[List[TraceRecord]], int]:
    """Per-thread traces and the workload's MLP, for a Table I name
    (seed model) or a scenario name (phase DSL).

    Memoized (bounded LRU).
    """
    key = (workload, threads, records, scale, seed)
    hit = _TRACE_MEMO.get(key)
    if hit is not None:
        _TRACE_MEMO.move_to_end(key)
        return hit
    generated = _generate_traces(workload, threads, records, scale, seed)
    _TRACE_MEMO[key] = generated
    while len(_TRACE_MEMO) > _TRACE_MEMO_MAX:
        _TRACE_MEMO.popitem(last=False)
    return generated


def _generate_traces(
    workload: str, threads: int, records: int, scale: int, seed: int
) -> Tuple[List[List[TraceRecord]], int]:
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
        traces = scenario.generate(threads, records, scale=scale, seed=seed)
        return traces, scenario.mlp
    model = get_model(name, scale=scale, seed=seed)
    return model.generate(threads, records), model.spec.mlp


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
    """
    del max_ns  # part of the run, not of the config
    if trace is not None:
        meta = read_meta(trace)
        if "config" not in meta:
            raise ValueError(
                f"tracefile {trace!r} has no embedded config; it was not "
                f"written by 'repro trace gen/capture' and cannot be "
                f"replayed as a sweep cell"
            )
        config = SimConfig.from_dict(meta["config"])
        return config, int(meta.get("records_per_thread") or 0)
    design: DesignVariant = get_variant(variant)
    if records_per_thread is None:
        records_per_thread = default_records()
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
    return base.replace(threads=threads), records_per_thread


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
        config = config.with_trace(enabled=True)
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
    max_ns = kwargs.pop("max_ns", None)
    config, records_per_thread = resolve_run(workload, variant, **kwargs)
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
