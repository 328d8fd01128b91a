"""Figure records and the chart helpers their shapers use.

A :class:`Figure` is everything one figure or table of the evaluation
needs, in one record:

* ``cells(workloads, records)`` -- the simulation cells it reads, as
  :class:`~repro.experiments.orchestrator.SweepJob` s (none for a
  figure computed in process);
* ``reduce(workloads, records, results)`` -- its JSON payload (what
  ``python -m repro figures`` writes to ``<figure>.json``), from the
  cells' results in cell order;
* ``chart`` -- a :class:`ChartSpec`: the paper section it reproduces,
  its report title and description, and a *shaper* that turns the
  payload into one or more renderable :class:`~repro.figures.svg.Chart`
  objects (a figure whose natural encoding needs more series than the
  palette has hues is faceted into small multiples, one chart per
  workload);
* ``expectations`` -- the paper's reported numbers for it, each an
  :class:`Expectation` (paper value, extractor, tolerances) scored as
  pass/warn/off;
* ``claims`` -- the paper's qualitative results for it, each a
  :class:`Claim` (an ordering or a direction) that holds or breaks.

The records live beside their cells and reduce in the
:mod:`repro.experiments` modules; the one registry of them is
:data:`repro.experiments.jobspec.FIGURES`, and ``repro report`` runs
the cells of every requested figure as one sweep
(:func:`~repro.experiments.jobspec.run_figures`) and scores each
payload against its record (:func:`repro.figures.fidelity.evaluate`).

Shapers, extractors and claims are fed the **JSON-normalized** form of
the data (:func:`shape_figure` round-trips through ``json`` first), so
they see exactly what a reader of the ``figures_out/*.json`` artifacts
sees: string keys everywhere, no tuples.  That makes rendering from a
live run and from a JSON file on disk byte-identical.

Adding a figure: write its record -- cells, reduce, chart with its
shaper, and its expectations and claims -- in the matching
``repro.experiments`` module and list it in ``FIGURES``; add its row
to the gallery in ``docs/FIGURES.md``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.figures.svg import Chart, Series

if TYPE_CHECKING:
    from repro.experiments.orchestrator import SweepJob
    from repro.experiments.runner import RunResult

ShapeFn = Callable[[object], List[Chart]]

#: Default :class:`Expectation` tolerances: within 25% passes, within
#: 150% is the expected scaled-down-warm band, beyond is flagged.
PASS_TOL = 0.25
WARN_TOL = 1.5

#: Reads one number from a JSON-normalized payload (None: not measurable).
Extractor = Callable[[dict], Optional[float]]


@dataclass(frozen=True)
class Expectation:
    """One paper-reported number and how to measure it from a payload."""

    metric: str
    paper: float
    extract: Extractor
    pass_tol: float = PASS_TOL
    warn_tol: float = WARN_TOL
    note: str = ""


#: One comparison a claim makes: whether it held, and the values it
#: compared, by name (shown when it breaks).
Check = Tuple[bool, Dict[str, float]]


def check(held: bool, **values: float) -> Check:
    """A :data:`Check` of ``held`` over the named ``values``."""
    return bool(held), values


def per_workload(test: Callable[[dict], Check]) -> Callable[[dict], Iterator[Check]]:
    """A claim test applying ``test`` to every workload's row of a
    ``{workload: row}`` payload, each value named after its workload."""

    def run(data: dict) -> Iterator[Check]:
        for workload, row in data.items():
            held, values = test(row)
            yield held, {f"{workload} {k}": v for k, v in values.items()}

    return run


@dataclass(frozen=True)
class Claim:
    """One qualitative paper result over a figure's payload.

    ``test`` yields a :data:`Check` per comparison.  The claim holds
    when every comparison holds and breaks when one does not; it is
    n/a when the payload lacks a workload or key it reads, or it
    compares nothing.
    """

    text: str
    test: Callable[[dict], Iterable[Check]]


@dataclass(frozen=True)
class ChartSpec:
    """Everything the report needs to render and document one figure."""

    figure: str
    title: str
    section: str  # paper section, e.g. "SS II-C"
    kind: str  # "bar" | "line" (the dominant mark; CDFs are lines)
    description: str
    shape: ShapeFn


def no_cells(workloads: Sequence[str], records: Optional[int]) -> List["SweepJob"]:
    """The cells of a figure that runs wholly in process: none."""
    return []


@dataclass(frozen=True)
class Figure:
    """One figure or table: its cells, their reduction to the JSON
    payload, its chart, and the paper's numbers and claims it is
    scored against.  ``workloads`` is the list both get when the
    report names none (empty for a figure that takes no workloads);
    ``records`` is the report's trace length, or None for each figure's
    default."""

    chart: ChartSpec
    reduce: Callable[[Sequence[str], Optional[int], List["RunResult"]], object]
    cells: Callable[[Sequence[str], Optional[int]], List["SweepJob"]] = no_cells
    workloads: Tuple[str, ...] = ()
    expectations: Tuple[Expectation, ...] = ()
    claims: Tuple[Claim, ...] = ()

    @property
    def name(self) -> str:
        return self.chart.figure


def _norm(data: object) -> object:
    """The JSON-normalized view of a payload (string keys)."""
    return json.loads(json.dumps(data, default=str))


def fsorted(keys: Sequence[str]) -> List[str]:
    """String keys sorted by their numeric value."""
    return sorted(keys, key=float)


def kib(size: str) -> float:
    return float(size) / 1024.0


#: The stack order of an AMAT decomposition
#: (SimStats.amat_breakdown keys, host outward).
AMAT_COMPONENTS = ("Host DRAM", "CXL Protocol", "Indexing", "SSD DRAM",
                   "Flash")


def bar(title: str, rows: Dict[str, Dict[str, float]], y_label: str,
        subtitle: str = "", series_order: Sequence[str] = ()) -> Chart:
    """A grouped bar chart from ``{category: {series: value}}`` rows."""
    categories = tuple(rows)
    labels = list(series_order) or list(next(iter(rows.values()), {}))
    series = tuple(
        Series(
            label=label,
            values=tuple(
                (None if rows[c].get(label) is None else float(rows[c][label]))
                for c in categories
            ),
        )
        for label in labels
    )
    return Chart(title=title, kind="bar", categories=categories,
                 series=series, y_label=y_label, subtitle=subtitle)


def stacked(title: str, rows: Dict[str, Dict[str, float]], y_label: str,
            subtitle: str = "", series_order: Sequence[str] = ()) -> Chart:
    """A stacked bar chart from ``{category: {segment: value}}`` rows."""
    chart = bar(title, rows, y_label, subtitle=subtitle,
                series_order=series_order)
    return Chart(title=chart.title, kind="stacked",
                 categories=chart.categories, series=chart.series,
                 y_label=chart.y_label, subtitle=chart.subtitle)


def single_bar(title: str, values: Dict[str, float], label: str,
               y_label: str, subtitle: str = "") -> Chart:
    return Chart(
        title=title,
        kind="bar",
        categories=tuple(values),
        series=(Series(label=label,
                       values=tuple(float(v) for v in values.values())),),
        y_label=y_label,
        subtitle=subtitle,
    )


def line(title: str, series: Dict[str, Sequence[Tuple[float, float]]],
         x_label: str, y_label: str, log_x: bool = False,
         subtitle: str = "") -> Chart:
    return Chart(
        title=title,
        kind="line",
        series=tuple(
            Series(label=label,
                   points=tuple((float(x), float(y)) for x, y in pts))
            for label, pts in series.items()
        ),
        x_label=x_label,
        y_label=y_label,
        log_x=log_x,
        subtitle=subtitle,
    )


def geomean(values: Sequence[float]) -> Optional[float]:
    """Geometric mean over the finite values (None when none remain).

    Values are clamped at 1e-12 so a zero cell cannot collapse the
    mean.  Shared by the fig. 22 shaper, extractors and claims.
    """
    clean = [max(float(v), 1e-12) for v in values
             if v is not None and math.isfinite(float(v))]
    if not clean:
        return None
    product = 1.0
    for v in clean:
        product *= v
    return product ** (1.0 / len(clean))


def aggregate(values: Sequence[float], how: str) -> Optional[float]:
    """``how`` ("geomean", "min", "max" or "mean") of the finite values
    (None when none remain)."""
    if how == "geomean":
        return geomean(values)
    values = [float(v) for v in values
              if v is not None and math.isfinite(float(v))]
    if not values:
        return None
    if how == "min":
        return min(values)
    if how == "max":
        return max(values)
    return sum(values) / len(values)  # mean


def value_at(key: str) -> Extractor:
    """The extractor of the number under a top-level payload ``key``."""

    def extract(data: dict) -> Optional[float]:
        value = data.get(key)
        return None if value is None else float(value)

    return extract


def shape_figure(figure: str, data: object) -> List[Chart]:
    """Render-ready charts for ``figure``'s payload.

    ``data`` may be the live payload or the parsed JSON artifact --
    both shapes produce identical charts.
    """
    from repro.experiments.jobspec import FIGURES  # the records import this module

    if figure not in FIGURES:
        raise KeyError(f"no chart spec registered for figure {figure!r}")
    return FIGURES[figure].chart.shape(_norm(data))
