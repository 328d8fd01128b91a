"""One job spec for the CLI verbs and the service's jobs.

A job is a grid of simulation cells (kinds ``sweep``, ``scenario``) or
a list of figures (``report``).  ``repro sweep|figures|report``
build its spec from argv, ``repro job submit`` sends that spec over
HTTP, and both ends check it with :func:`parse_spec`: a bad value is a
CLI exit 2 or an HTTP 400 at submit, with an error naming the field.
Parsing checks types, ranges and names only (no per-cell config is
resolved).  A parsed spec runs through one sweep planner and payload
(:func:`plan_sweep`, :func:`sweep_payload`) or, for a report, one plan
of every figure's cells run as one sweep (:func:`run_figures`),
whichever door it came in by.
"""

from __future__ import annotations

import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import FLASH_TIMINGS, rule_of
from repro.experiments import ablation, colocation, cost, design, migration_study
from repro.experiments import flash_sensitivity, motivation, occupancy, overall
from repro.experiments import qos, sensitivity
from repro.experiments.orchestrator import (
    CellUpdate,
    ResultCache,
    SweepJob,
    drain_sweep,
    sweep_product,
)
from repro.experiments.runner import RunResult, default_records
from repro.figures.spec import Figure
from repro.scenarios import canonical_scenario
from repro.variants import MAIN_VARIANTS, canonical_variant
from repro.workloads.suites import WORKLOAD_NAMES, canonical_workload

#: Every figure and table ``repro figures``/``report`` can make, by id.
FIGURES: Dict[str, Figure] = {figure.name: figure for figure in (
    *motivation.FIGURES,
    *design.FIGURES,
    *overall.FIGURES,
    *sensitivity.FIGURES,
    migration_study.FIG23,
    colocation.COLOCATION,
    qos.QOS,
    flash_sensitivity.FLASH_SENSITIVITY,
    cost.COST,
    *ablation.FIGURES,
    occupancy.CHANNEL_OCCUPANCY,
)}

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
    """What :func:`run_figures` tells about each cell and figure.  This
    one keeps nothing, so a failing figure raises; a ``ReportBuilder``
    records the failure as that figure's FAILED section."""

    def cell_completed(self, job: SweepJob, source: str) -> None:
        pass

    def figure_finished(self, figure: str, data: object) -> None:
        pass

    def figure_failed(self, figure: str, error: str) -> None:
        raise  # called while handling the figure's exception: re-raise it


def run_figures(spec: JobSpec, out_dir: Path, log: object = None,
                verbose: bool = False, progress: object = None,
                **sweep_options: object) -> List[str]:
    """Make a report spec's figures; returns the names of those that
    failed.

    Plans the cells of every figure, runs them as one sweep
    (:func:`~repro.experiments.orchestrator.drain_sweep`, which
    simulates each distinct cell once; ``sweep_options`` are its
    ``jobs``, ``cache``, ``backend`` and ``policy``) and reduces each
    figure as soon as its last cell lands -- a figure with no cells
    first, before the sweep -- writing ``<out_dir>/<name>.json``.
    ``log`` (default a :class:`FigureLog`) hears of each cell and of
    each figure written or failed, in completion order; ``progress``
    also gets each cell.  A reduce that raises fails its own figure; a
    sweep that raises fails the figures still waiting for cells.
    """
    log = FigureLog() if log is None else log
    records = spec.cell.get("records")
    failed: List[str] = []

    def fail(name: str, error: str) -> None:
        failed.append(name)
        if verbose:
            print(f"== {name}: FAILED (see {out_dir / 'REPORT.md'})",
                  file=sys.stderr)
        log.figure_failed(name, error)

    # The plan: every figure's cells in one list, each figure owning a
    # slice of it.
    workloads: Dict[str, List[str]] = {}
    span: Dict[str, slice] = {}
    cells: List[SweepJob] = []
    owner: List[str] = []
    for name in spec.figures:
        figure = FIGURES[name]
        workloads[name] = list(spec.workloads) or list(figure.workloads)
        try:
            jobs = figure.cells(workloads[name], records)
        except Exception:  # noqa: BLE001 - recorded, non-zero exit
            fail(name, traceback.format_exc())
            continue
        span[name] = slice(len(cells), len(cells) + len(jobs))
        cells += jobs
        owner += [name] * len(jobs)
    waiting = {name: part.stop - part.start for name, part in span.items()}
    results: List[Optional[RunResult]] = [None] * len(cells)

    def finish(name: str) -> None:
        path = out_dir / f"{name}.json"
        try:
            data = FIGURES[name].reduce(workloads[name], records,
                                        results[span[name]])
            path.write_text(json.dumps(data, indent=2, default=str))
            log.figure_finished(name, data)
        except Exception:  # noqa: BLE001 - recorded, non-zero exit
            fail(name, traceback.format_exc())
            return
        if verbose:
            print(f"== {name}: wrote {path}")

    def on_update(update: CellUpdate) -> None:
        log.cell_completed(update.job, update.source)
        if progress is not None:
            progress(update.job, update.source)
        for i in update.positions:
            results[i] = update.result
            waiting[owner[i]] -= 1
            if not waiting[owner[i]]:
                finish(owner[i])

    for name, left in waiting.items():
        if not left:
            finish(name)
    try:
        drain_sweep(cells, on_update, **sweep_options)
    except Exception:  # noqa: BLE001 - fails the figures it starved
        error = traceback.format_exc()
        for name, left in waiting.items():
            if left:
                fail(name, error)
    return failed
