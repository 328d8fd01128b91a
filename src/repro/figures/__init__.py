"""Figure rendering and paper-fidelity reporting.

This subsystem turns the JSON payloads of the figures in
:mod:`repro.experiments` into human-readable evaluation artifacts,
with no dependencies beyond the standard library (CI never needs
matplotlib):

* :mod:`repro.figures.spec` -- the :class:`Figure` record (cells,
  reduce, chart spec, the paper's expectations and claims) and the
  chart helpers the shapers use;
* :mod:`repro.figures.svg` -- a deterministic SVG renderer for grouped
  bars and lines;
* :mod:`repro.figures.fidelity` -- scores a payload against its
  record's expectations and claims;
* :mod:`repro.figures.report` -- the incremental ``REPORT.md`` /
  ``REPORT.html`` builder behind ``python -m repro report``.

See ``docs/ARCHITECTURE.md`` for where this layer sits and
``docs/FIGURES.md`` for the per-figure gallery.
"""

from repro.figures.fidelity import ClaimRow, FidelityRow, classify, evaluate
from repro.figures.report import ReportBuilder
from repro.figures.spec import ChartSpec, Claim, Expectation, Figure, shape_figure
from repro.figures.svg import Chart, Series, render_chart

__all__ = [
    "Chart",
    "ChartSpec",
    "Claim",
    "ClaimRow",
    "Expectation",
    "FidelityRow",
    "Figure",
    "ReportBuilder",
    "Series",
    "classify",
    "evaluate",
    "render_chart",
    "shape_figure",
]
