"""One job spec for the CLI verbs and the service's jobs.

A job is a grid of simulation cells (kinds ``sweep``, ``scenario``) or
a list of figure drivers (``report``).  ``repro sweep|figures|report``
build its spec from argv, ``repro job submit`` sends that spec over
HTTP, and both ends check it with :func:`parse_spec`: a bad value is a
CLI exit 2 or an HTTP 400 at submit, with an error naming the field.
Parsing checks types, ranges and names only (no per-cell config is
resolved).  A parsed spec runs through one sweep planner and payload
(:func:`plan_sweep`, :func:`sweep_payload`) or one
figures loop (:func:`run_figures`), whichever door it came in by.
"""

from __future__ import annotations

import inspect
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.config import FLASH_TIMINGS, rule_of
from repro.experiments import ablation, colocation, cost, design, migration_study
from repro.experiments import flash_sensitivity, motivation, occupancy, overall
from repro.experiments import qos, sensitivity
from repro.experiments.orchestrator import (
    CellUpdate,
    ResultCache,
    SweepJob,
    sweep_product,
)
from repro.experiments.runner import RunResult, default_records
from repro.scenarios import canonical_scenario
from repro.variants import MAIN_VARIANTS, canonical_variant
from repro.workloads.suites import WORKLOAD_NAMES, canonical_workload

#: Figure/table drivers: ``repro figures``/``report`` ids -> driver.
FIGURES: Dict[str, Callable] = {
    "fig2": motivation.fig2_dram_vs_cssd,
    "fig3": motivation.fig3_latency_distribution,
    "fig4": motivation.fig4_boundedness,
    "fig5": motivation.fig5_read_locality,
    "fig6": motivation.fig6_write_locality,
    "fig9": design.fig9_threshold_sweep,
    "fig10": design.fig10_scheduling_policies,
    "fig14": overall.fig14_overall,
    "fig15": overall.fig15_thread_scaling,
    "fig16": overall.fig16_request_breakdown,
    "fig17": overall.fig17_amat,
    "fig18": overall.fig18_write_traffic,
    "fig19": sensitivity.fig19_log_size_performance,
    "fig20": sensitivity.fig20_log_size_traffic,
    "fig21": sensitivity.fig21_dram_size,
    "fig22": sensitivity.fig22_flash_latency,
    "fig23": migration_study.fig23_migration_mechanisms,
    "table3": overall.table3_flash_read_latency,
    "colocation": colocation.colocation_study,
    "qos": qos.qos_slo_study,
    "flash-sensitivity": flash_sensitivity.flash_sensitivity_study,
    "cost": cost.cost_effectiveness,
    "prefetch-ablation": ablation.prefetch_ablation,
    "promotion-threshold": ablation.promotion_threshold_sweep,
    "persistence-interval": ablation.persistence_interval_sweep,
    "channel-occupancy": occupancy.channel_occupancy_study,
}

#: Job kinds :func:`parse_spec` accepts.
JOB_KINDS = ("sweep", "scenario", "report")


class SpecError(ValueError):
    """A spec field that is unknown, mistyped, out of range or names
    nothing; the message starts with the field's name."""

    def __init__(self, name: str, reason: str) -> None:
        super().__init__(f"{name}: {reason}")
        self.field = name
        self.reason = reason


@dataclass(frozen=True)
class Field:
    """One scalar spec field; the CLI spells it ``--name-with-dashes``."""

    name: str
    type: type
    minimum: Optional[int] = None
    choices: Tuple[str, ...] = ()
    kwarg: Optional[str] = None  # the SweepJob keyword, for cell fields
    help: str = ""

    def check(self, value: object) -> object:
        """``value`` if this field accepts it, else a :class:`SpecError`."""
        if self.type is int and (isinstance(value, bool)
                                 or not isinstance(value, int)):
            raise SpecError(self.name, f"must be an integer, not {value!r}")
        if self.type is str and not isinstance(value, str):
            raise SpecError(self.name, f"must be a string, not {value!r}")
        if self.minimum is not None and value < self.minimum:
            raise SpecError(self.name,
                            f"must be at least {self.minimum}, not {value}")
        if self.choices and value not in self.choices:
            raise SpecError(self.name, f"must be one of "
                                       f"{', '.join(self.choices)}, not {value!r}")
        return value


#: The per-cell fields every cell-building verb and job kind shares.
#: ``threads``, ``seed`` and ``device_model`` take their rule from the
#: config schema (:mod:`repro.config`); ``records`` and ``scale`` are
#: run arguments, not config fields.
CELL_FIELDS: Tuple[Field, ...] = (
    Field("records", int, 1, kwarg="records_per_thread",
          help="trace records per thread (default REPRO_RECORDS)"),
    Field("threads", int, rule_of("threads").minimum, kwarg="threads",
          help="simulated threads (default: the variant's rule; "
               "trace gen: 2, per tenant when colocating)"),
    Field("scale", int, 1, kwarg="scale",
          help="capacity scale divisor (default 512)"),
    Field("timing", str, choices=tuple(FLASH_TIMINGS), kwarg="timing",
          help="flash timing preset (default ULL)"),
    Field("seed", int, rule_of("seed").minimum, kwarg="seed",
          help="workload synthesis and simulation seed (default 42)"),
    Field("device_model", str, choices=rule_of("device_model.kind").choices,
          kwarg="device_model",
          help="flash device model: flat horizon estimates or the deep "
               "geometry/scheduler/GC model (default flat; see "
               "docs/DEVICE_MODEL.md)"),
)
#: Cell processes a job runs on; it changes no result.
JOBS = Field("jobs", int, 1, help="local cell processes, forked once and "
                                  "kept (default REPRO_JOBS or 1: in process)")
_CELL_KEYS = tuple(f.name for f in CELL_FIELDS)
#: The name-list keys a spec may take besides a scenario job's ``names``.
GRID_KEYS = ("workloads", "scenarios", "variants", "figures")


def _figure(name: str) -> str:
    if name not in FIGURES:
        raise KeyError(f"unknown figure(s): {name}; available: "
                       f"{', '.join(sorted(FIGURES))}")
    return name


def _names(key: str, lookup: Callable[[str], str]) -> Callable[[object], tuple]:
    """A check for the list of names under ``key``, each canonicalised
    by ``lookup``."""

    def check(value: object) -> tuple:
        if not isinstance(value, list) or not all(isinstance(v, str)
                                                  for v in value):
            raise SpecError(key, f"must be a list of names, not {value!r}")
        try:
            return tuple(lookup(v) for v in value)
        except KeyError as exc:
            raise SpecError(key, exc.args[0]) from None

    return check


#: Spec key -> the check of its value, for every key of every kind.
_CHECKS: Dict[str, Callable[[object], object]] = {
    "workloads": _names("workloads", canonical_workload),
    "scenarios": _names("scenarios", canonical_scenario),
    "names": _names("names", canonical_scenario),
    "variants": _names("variants", canonical_variant),
    "figures": _names("figures", _figure),
    **{f.name: f.check for f in CELL_FIELDS + (JOBS,)},
}
#: Keys each job kind accepts; any other key is an error.
KIND_KEYS: Dict[str, Tuple[str, ...]] = {
    "sweep": ("workloads", "scenarios", "variants") + _CELL_KEYS + ("jobs",),
    "scenario": ("names", "scenarios", "variants") + _CELL_KEYS + ("jobs",),
    "report": ("figures", "workloads", "records", "jobs"),
}


@dataclass(frozen=True)
class JobSpec:
    """A parsed job: canonical names, checked values, defaults applied."""

    kind: str
    #: sweep/scenario: the grid's rows (Table I workloads, then
    #: scenarios); report: the workloads the figures are limited to.
    workloads: Tuple[str, ...] = ()
    variants: Tuple[str, ...] = ()
    figures: Tuple[str, ...] = ()
    #: Cell field -> value: the fields the spec sets, plus ``records``
    #: (default ``REPRO_RECORDS``) for a sweep/scenario.
    cell: Dict[str, object] = field(default_factory=dict)
    jobs: Optional[int] = None


def parse_spec(kind: str, spec: object) -> JobSpec:
    """Check a job spec (a JSON object; ``null`` means unset) against
    its kind: raises :class:`ValueError`, a :class:`SpecError` naming
    the field for an unknown key, a wrong type, a number out of range
    or a name that names nothing."""
    if kind not in JOB_KINDS:
        raise ValueError(f"unknown job kind {kind!r} (expected one of "
                         f"{', '.join(JOB_KINDS)})")
    if not isinstance(spec, dict):
        raise ValueError("job spec must be a JSON object")
    for key in spec:
        if key not in KIND_KEYS[kind]:
            raise SpecError(key, f"unknown {kind} spec key (expected one "
                                 f"of {', '.join(KIND_KEYS[kind])})")
    values = {k: _CHECKS[k](v) for k, v in spec.items() if v is not None}
    cell = {k: values[k] for k in _CELL_KEYS if k in values}
    if kind == "report":
        figures = values.get("figures") or sorted(FIGURES)
        return JobSpec(kind, workloads=values.get("workloads", ()),
                       figures=tuple(dict.fromkeys(figures)), cell=cell,
                       jobs=values.get("jobs"))
    if kind == "scenario":
        rows = values.get("names") or values.get("scenarios")
        if not rows:
            raise SpecError("names", "a scenario job needs at least one name")
    else:
        rows = (values.get("workloads", ()) + values.get("scenarios", ())
                or tuple(WORKLOAD_NAMES))
    if "records" not in cell:
        cell["records"] = _CHECKS["records"](default_records())
    return JobSpec(kind, workloads=rows,
                   variants=values.get("variants") or tuple(MAIN_VARIANTS),
                   cell=cell, jobs=values.get("jobs"))


def cell_kwargs(values: Mapping[str, object]) -> Dict[str, object]:
    """The SweepJob keywords of the cell fields set in ``values`` (a
    parsed spec's ``cell`` or a CLI namespace's vars)."""
    return {f.kwarg: values[f.name] for f in CELL_FIELDS
            if values.get(f.name) is not None}


# -- sweeps ------------------------------------------------------------------


def plan_sweep(spec: JobSpec) -> List[SweepJob]:
    """The cells of a sweep/scenario spec: its workload x variant grid."""
    return sweep_product(spec.workloads, spec.variants,
                         **cell_kwargs(spec.cell))


def cell_event(update: CellUpdate) -> Dict[str, object]:
    """The ``cell`` progress record: ``repro sweep --stream`` prints it,
    a service job appends it to its event log."""
    r = update.result
    return {"event": "cell", "workload": r.workload, "variant": r.variant,
            "source": update.source, "completed": update.completed,
            "total": update.total, "exec_ms": r.stats.execution_ns / 1e6,
            "ipns": r.stats.throughput_ipns}


def sweep_payload(spec: JobSpec, jobs: int, backend: str,
                  results: Sequence[RunResult],
                  cache: object = None) -> Dict[str, object]:
    """The ``repro sweep --output`` document, a sweep job's result;
    with a :class:`ResultCache`, plus the run's cache counters."""
    payload: Dict[str, object] = {
        "workloads": list(spec.workloads),
        "variants": list(spec.variants),
        "records_per_thread": spec.cell["records"],
        "jobs": jobs,
        "backend": backend,
        "results": [r.to_dict() for r in results],
    }
    if isinstance(cache, ResultCache):
        payload["cache"] = {"hits": cache.hits, "misses": cache.misses,
                            "dir": str(cache.root)}
    return payload


# -- figures -----------------------------------------------------------------


class FigureLog:
    """What :func:`run_figures` tells about each figure and cell.  This
    one keeps nothing, so a failing driver raises; a ``ReportBuilder``
    records the failure as that figure's FAILED section."""

    def figure_started(self, figure: str) -> None:
        pass

    def cell_completed(self, job: SweepJob, source: str) -> None:
        pass

    def figure_finished(self, figure: str, data: object) -> None:
        pass

    def figure_failed(self, figure: str, error: str) -> None:
        raise  # called while handling the driver's exception: re-raise it


def run_figures(spec: JobSpec, out_dir: Path, log: object = None,
                verbose: bool = False,
                **options: object) -> Iterator[Tuple[str, bool]]:
    """Run a report spec's figure drivers in order, writing
    ``<out_dir>/<name>.json`` for each and telling ``log`` (default a
    :class:`FigureLog`) about each figure, cell and failure; yields
    ``(name, failed)`` after each figure.  ``options`` (``backend``,
    ``cache``, ``progress``, ``policy``) and the spec's workloads,
    records and jobs reach the drivers that take them."""
    log = FigureLog() if log is None else log
    caller_progress = options.get("progress")

    def progress(job: SweepJob, source: str) -> None:
        log.cell_completed(job, source)
        if caller_progress is not None:
            caller_progress(job, source)

    candidates = dict(options, jobs=spec.jobs, progress=progress,
                      workloads=list(spec.workloads) or None,
                      records=spec.cell.get("records"))
    for name in spec.figures:
        fn = FIGURES[name]
        if verbose:
            print(f"== {name}: {fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
        accepted = inspect.signature(fn).parameters
        # None means "the driver's default"; False (--no-cache) must
        # reach the driver.
        kwargs = {k: v for k, v in candidates.items()
                  if k in accepted and v is not None}
        path = out_dir / f"{name}.json"
        log.figure_started(name)
        try:
            data = fn(**kwargs)
            path.write_text(json.dumps(data, indent=2, default=str))
            log.figure_finished(name, data)
        except Exception:  # noqa: BLE001 - recorded, non-zero exit
            log.figure_failed(name, traceback.format_exc())
            if verbose:
                print(f"   FAILED (see {out_dir / 'REPORT.md'})", file=sys.stderr)
            yield name, True
            continue
        if verbose:
            print(f"   wrote {path}")
        yield name, False
