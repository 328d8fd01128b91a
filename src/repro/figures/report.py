"""Assemble rendered figures + fidelity and claim tables into
REPORT.md/REPORT.html.

:class:`ReportBuilder` is the log of
:func:`repro.experiments.jobspec.run_figures`: it counts the cells of
the report's one sweep as they finish, and the report on disk is
**rewritten as each figure is written or fails** (and once at the
end) -- a long report can be watched by refreshing ``REPORT.md`` (the
status section counts figures and cells, finished figures are already
rendered, pending ones say so).  Every file is written atomically (tmp
+ rename), so a reader never sees a torn document, no matter which
backend is executing cells.

Outputs, all under one directory:

* ``REPORT.md`` -- status, fidelity table (the paper's numbers), claim
  table (the paper's orderings: holds, broken with the values that
  broke it, or n/a), one section per figure referencing its
  ``<figure>.svg`` files;
* ``REPORT.html`` -- the same content as a standalone page with every
  SVG inlined (the single-file artifact CI uploads);
* ``<figure>.svg`` (or ``<figure>_N.svg`` for faceted figures) -- the
  charts themselves, written as each figure finishes;
* ``BENCH_fidelity.json`` -- the fidelity table in machine-readable
  form: per figure a score in [0, 1] (pass=1, warn=0.5, off=0,
  averaged over its expectations), the seconds from the report's start
  until it was written, the raw rows and its claim rows, plus overall
  aggregates (``wall_s`` there is the report's own wall time) -- so CI
  can diff fidelity across commits and fail on a broken claim instead
  of eyeballing the rendered tables.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.figures.fidelity import ClaimRow, FidelityRow, evaluate
from repro.figures.spec import shape_figure
from repro.figures.svg import render_chart
from repro.figures.trends import render_markdown as render_trend_markdown

_STATE_LABEL = {
    "pending": "pending",
    "done": "done",
    "failed": "FAILED",
}


def _fmt_num(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}"


def _fmt_delta(delta: Optional[float]) -> str:
    return "-" if delta is None else f"{delta:+.1%}"


def _fmt_measured(measured: Dict[str, float]) -> str:
    return ", ".join(f"{k} {_fmt_num(v)}" for k, v in measured.items()) or "-"


#: The report's score tables: heading, the explanation above the
#: table, the text when no figure has rows, and the columns as
#: ``(name, numeric)``.
_TABLES = (
    ("Fidelity vs. the paper",
     "Relative delta `(reproduced - paper) / |paper|`; `pass` within 25%, "
     "`warn` within 150% (expected at this scale), `off` beyond, `n/a` not "
     "measurable from this run. See `docs/FIGURES.md`.",
     "No paper expectations registered for the selected figures.",
     (("figure", False), ("metric", False), ("paper", True),
      ("reproduced", True), ("delta", True), ("status", False))),
    ("Paper claims",
     "The paper's orderings and directions: `holds`, `broken` (with the "
     "values that broke it), or `n/a` when this run lacks a workload or "
     "value the claim reads.",
     "No paper claims registered for the selected figures.",
     (("figure", False), ("claim", False), ("status", False),
      ("measured", False))),
)


def _escape_html(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def _atomic_write(path: Path, content: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(content, encoding="utf-8")
    os.replace(tmp, path)


class ReportBuilder:
    """Incrementally materialise the fidelity report for a figure list."""

    def __init__(self, out_dir, figures: Sequence[str],
                 title: str = "SkyByte reproduction report") -> None:
        from repro.experiments.jobspec import FIGURES  # imports this package

        unknown = [f for f in figures if f not in FIGURES]
        if unknown:
            raise KeyError(f"no chart spec for figure(s): {', '.join(unknown)}")
        self.records = {f: FIGURES[f] for f in figures}
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.title = title
        self.figures = list(figures)
        self.state: Dict[str, str] = {f: "pending" for f in self.figures}
        self.errors: Dict[str, str] = {}
        self.svg_files: Dict[str, List[Tuple[str, str]]] = {}
        self.fidelity: Dict[str, List[FidelityRow]] = {}
        self.claims: Dict[str, List[ClaimRow]] = {}
        self.cells_run = 0
        self.cells_cached = 0
        self._t0 = time.monotonic()
        #: Seconds from the start of the report until each figure was
        #: written (or failed).
        self.figure_wall_s: Dict[str, float] = {}
        #: Historic trend rows (``<output>/trends.ndjson``), set by the CLI
        #: once the run completes; rendered as a sparkline table.
        self.trend_rows: List[Dict[str, object]] = []

    # -- lifecycle hooks ---------------------------------------------------

    def figure_finished(self, figure: str, data: object) -> None:
        self.figure_wall_s[figure] = time.monotonic() - self._t0
        charts = shape_figure(figure, data)
        files: List[Tuple[str, str]] = []
        for i, chart in enumerate(charts):
            name = (f"{figure}.svg" if len(charts) == 1
                    else f"{figure}_{i + 1}.svg")
            svg = render_chart(chart)
            _atomic_write(self.out_dir / name, svg)
            files.append((name, svg))
        self.svg_files[figure] = files
        self.fidelity[figure], self.claims[figure] = evaluate(
            self.records[figure], data)
        self.state[figure] = "done"
        self.render()

    def figure_failed(self, figure: str, error: str) -> None:
        self.figure_wall_s[figure] = time.monotonic() - self._t0
        self.state[figure] = "failed"
        self.errors[figure] = error
        self.render()

    def cell_completed(self, job, source: str) -> None:
        """One finished simulation cell; counted, shown at the next
        render."""
        if source == "cache":
            self.cells_cached += 1
        else:
            self.cells_run += 1

    # -- document assembly -------------------------------------------------

    @property
    def complete(self) -> bool:
        return all(s in ("done", "failed") for s in self.state.values())

    def status_line(self) -> str:
        done = sum(1 for s in self.state.values() if s == "done")
        failed = sum(1 for s in self.state.values() if s == "failed")
        total = len(self.figures)
        cells = (f"{self.cells_run + self.cells_cached} cell(s) finished "
                 f"({self.cells_cached} from cache)")
        if self.complete:
            tail = f", {failed} failed" if failed else ""
            return f"Complete: {done}/{total} figure(s) rendered{tail}; {cells}."
        return (f"In progress: {done}/{total} figure(s) rendered; {cells}. "
                f"This file is rewritten as each figure finishes -- "
                f"refresh to watch.")

    def _score_tables(self) -> List[Tuple[tuple, List[List[str]]]]:
        """The fidelity and claim tables: each its :data:`_TABLES` entry
        and its rows of cell text (a figure not yet written lists its
        expectations and claims under its state)."""
        fidelity: List[List[str]] = []
        claims: List[List[str]] = []
        for figure in self.figures:
            if figure in self.fidelity:
                fidelity += [[r.figure, r.metric, _fmt_num(r.paper),
                              _fmt_num(r.reproduced), _fmt_delta(r.delta),
                              r.status] for r in self.fidelity[figure]]
                claims += [[c.figure, c.claim, c.status,
                            _fmt_measured(c.measured)]
                           for c in self.claims[figure]]
            else:
                label = _STATE_LABEL[self.state[figure]]
                record = self.records[figure]
                fidelity += [[figure, e.metric, _fmt_num(e.paper), "-", "-",
                              label] for e in record.expectations]
                claims += [[figure, c.text, label, "-"] for c in record.claims]
        return list(zip(_TABLES, (fidelity, claims)))

    def markdown(self) -> str:
        lines = [f"# {self.title}", "", self.status_line(), ""]
        for (heading, intro, empty, columns), rows in self._score_tables():
            lines += [f"## {heading}", ""]
            if not rows:
                lines += [empty, ""]
                continue
            lines += [
                intro, "",
                "| " + " | ".join(name for name, _ in columns) + " |",
                "| " + " | ".join("---:" if numeric else "---"
                                  for _, numeric in columns) + " |",
            ]
            lines += ["| " + " | ".join(row) + " |" for row in rows]
            lines.append("")
        if self.trend_rows:
            lines += ["## Trends", ""]
            lines += render_trend_markdown(self.trend_rows)
            lines.append("")
        lines += ["## Figures", ""]
        for figure in self.figures:
            spec = self.records[figure].chart
            state = self.state[figure]
            lines.append(f"### {figure} -- {spec.title} ({spec.section})")
            lines += ["", spec.description, ""]
            if state == "done":
                lines += [f"![{figure}]({name})" for name, _svg in
                          self.svg_files[figure]]
            elif state == "failed":
                lines += ["```", self.errors[figure].strip(), "```"]
            else:
                lines.append(f"*{_STATE_LABEL[state]}*")
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"

    def html(self) -> str:
        parts = [
            "<!DOCTYPE html>",
            '<html lang="en"><head><meta charset="utf-8">',
            f"<title>{_escape_html(self.title)}</title>",
            "<style>",
            "body{font-family:system-ui,sans-serif;margin:2rem auto;"
            "max-width:72rem;padding:0 1rem;color:#0b0b0b;"
            "background:#fcfcfb}",
            "table{border-collapse:collapse;font-size:0.85rem}",
            "th,td{border:1px solid #d9d8d3;padding:0.3rem 0.6rem;"
            "text-align:left}",
            "td.num{text-align:right;font-variant-numeric:tabular-nums}",
            ".pass,.holds{color:#006100}.warn{color:#8a5a00}"
            ".off,.broken{color:#a11a1a}",
            "figure{margin:1rem 0}",
            "pre{background:#f3f2ee;padding:0.6rem;overflow-x:auto}",
            "</style></head><body>",
            f"<h1>{_escape_html(self.title)}</h1>",
            f"<p>{_escape_html(self.status_line()).replace('**', '')}</p>",
        ]
        for (heading, intro, empty, columns), rows in self._score_tables():
            parts.append(f"<h2>{heading}</h2>")
            if not rows:
                parts.append(f"<p>{empty}</p>")
                continue
            parts.append(f"<p>{_escape_html(intro.replace('`', ''))}</p>")
            head = "".join(f"<th>{name}</th>" for name, _ in columns)
            parts.append(f"<table><thead><tr>{head}</tr></thead><tbody>")
            for row in rows:
                # numbers align right; a status cell is coloured by value
                cells = "".join(
                    f'<td class="{"num" if numeric else value if name == "status" else ""}">'
                    f"{_escape_html(value)}</td>"
                    for (name, numeric), value in zip(columns, row))
                parts.append(f"<tr>{cells}</tr>")
            parts.append("</tbody></table>")
        if self.trend_rows:
            parts.append("<h2>Trends</h2>")
            parts.append("<pre>" + _escape_html(
                "\n".join(render_trend_markdown(self.trend_rows))
            ) + "</pre>")
        parts.append("<h2>Figures</h2>")
        for figure in self.figures:
            spec = self.records[figure].chart
            state = self.state[figure]
            parts.append(
                f"<h3>{_escape_html(figure)} &mdash; "
                f"{_escape_html(spec.title)} "
                f"({_escape_html(spec.section)})</h3>"
            )
            parts.append(f"<p>{_escape_html(spec.description)}</p>")
            if state == "done":
                for _name, svg in self.svg_files[figure]:
                    parts.append(f"<figure>{svg}</figure>")
            elif state == "failed":
                parts.append(
                    f"<pre>{_escape_html(self.errors[figure].strip())}</pre>"
                )
            else:
                parts.append(f"<p><em>{_STATE_LABEL[state]}</em></p>")
        parts.append("</body></html>")
        return "\n".join(parts) + "\n"

    # -- machine-readable fidelity benchmark -------------------------------

    _STATUS_SCORE = {"pass": 1.0, "warn": 0.5, "off": 0.0}

    def bench(self) -> Dict[str, object]:
        """The ``BENCH_fidelity.json`` payload: per-figure fidelity score
        (pass=1, warn=0.5, off=0, averaged over scored expectations;
        null when the figure has none or has not finished), wall time
        and claim rows, plus overall aggregates -- what CI diffs across
        commits, and fails on when a claim is broken."""
        figures: Dict[str, object] = {}
        status_counts = {"pass": 0, "warn": 0, "off": 0, "n/a": 0}
        claim_counts = {"holds": 0, "broken": 0, "n/a": 0}
        scores: List[float] = []
        for figure in self.figures:
            rows = self.fidelity.get(figure, [])
            scored = [self._STATUS_SCORE[r.status] for r in rows
                      if r.status in self._STATUS_SCORE]
            for r in rows:
                if r.status in status_counts:
                    status_counts[r.status] += 1
            score = sum(scored) / len(scored) if scored else None
            if score is not None:
                scores.append(score)
            figures[figure] = {
                "state": self.state[figure],
                "score": score,
                "wall_s": self.figure_wall_s.get(figure),
                "expectations": [
                    {"metric": r.metric, "paper": r.paper,
                     "reproduced": r.reproduced, "delta": r.delta,
                     "status": r.status}
                    for r in rows
                ],
                "claims": [
                    {"claim": c.claim, "status": c.status,
                     "measured": c.measured}
                    for c in self.claims.get(figure, [])
                ],
            }
            for c in self.claims.get(figure, []):
                claim_counts[c.status] += 1
        return {
            "figures": figures,
            "overall": {
                "score": sum(scores) / len(scores) if scores else None,
                "wall_s": time.monotonic() - self._t0,
                "cells_run": self.cells_run,
                "cells_cached": self.cells_cached,
                "statuses": status_counts,
                "claims": claim_counts,
                "complete": self.complete,
            },
        }

    def render(self) -> None:
        """Rewrite REPORT.md, REPORT.html and BENCH_fidelity.json
        atomically."""
        _atomic_write(self.out_dir / "REPORT.md", self.markdown())
        _atomic_write(self.out_dir / "REPORT.html", self.html())
        _atomic_write(self.out_dir / "BENCH_fidelity.json",
                      json.dumps(self.bench(), indent=2, sort_keys=True) + "\n")
