"""Figure rendering and paper-fidelity reporting.

This subsystem turns the JSON payloads of the figures in
:mod:`repro.experiments` into human-readable evaluation artifacts,
with no dependencies beyond the standard library (CI never needs
matplotlib):

* :mod:`repro.figures.spec` -- the :class:`Figure` record (cells,
  reduce, chart spec) and the chart helpers the shapers use;
* :mod:`repro.figures.svg` -- a deterministic SVG renderer for grouped
  bars and lines;
* :mod:`repro.figures.fidelity` -- reproduced-vs-paper scoring against
  the ``PAPER_EXPECTED`` annotations beside the figures;
* :mod:`repro.figures.report` -- the incremental ``REPORT.md`` /
  ``REPORT.html`` builder behind ``python -m repro report``.

See ``docs/ARCHITECTURE.md`` for where this layer sits and
``docs/FIGURES.md`` for the per-figure gallery.
"""

from repro.figures.fidelity import (
    Expectation,
    FidelityRow,
    all_expectations,
    classify,
    evaluate,
    expectations_for,
)
from repro.figures.report import ReportBuilder
from repro.figures.spec import ChartSpec, Figure, shape_figure
from repro.figures.svg import Chart, Series, render_chart

__all__ = [
    "Chart",
    "ChartSpec",
    "Expectation",
    "FidelityRow",
    "Figure",
    "ReportBuilder",
    "Series",
    "all_expectations",
    "classify",
    "evaluate",
    "expectations_for",
    "render_chart",
    "shape_figure",
]
