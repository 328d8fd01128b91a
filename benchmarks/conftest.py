"""Shared helpers for the per-figure benchmark targets.

Every benchmark regenerates one table or figure of the paper's
evaluation.  Trace length per thread is controlled by REPRO_BENCH_RECORDS
(default 1500) so the full suite stays laptop-friendly; raise it for
higher-fidelity numbers.

Every benchmark makes its figure through the one entry point
``repro report`` uses (:func:`run_figure`):
REPRO_BENCH_JOBS sets the worker-process count (default 1 so timing
numbers stay comparable across machines) and REPRO_BENCH_CACHE=1 turns
on the on-disk result cache, which makes re-running a figure with
unchanged parameters near-instant.
"""

import os
import tempfile
from pathlib import Path
from typing import Mapping, Optional, Sequence

from repro.experiments.jobspec import FigureLog, parse_spec, run_figures


def bench_records() -> int:
    return int(os.environ.get("REPRO_BENCH_RECORDS", "1500"))


def bench_jobs() -> int:
    """Worker processes per sweep (REPRO_BENCH_JOBS, default serial)."""
    return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))


def bench_cache():
    """Cache argument for the experiment drivers: enabled only when
    REPRO_BENCH_CACHE is truthy (cached timings measure the cache, not
    the simulator, so opt in deliberately)."""
    return os.environ.get("REPRO_BENCH_CACHE", "").lower() in {
        "1", "true", "yes", "on"
    }


class _Payload(FigureLog):
    def figure_finished(self, figure: str, data: object) -> None:
        self.data = data


def run_figure(name: str, records: Optional[int] = None,
               workloads: Sequence[str] = ()) -> object:
    """``name``'s payload, made by :func:`run_figures` like a one-figure
    ``repro report``; a failing figure raises."""
    spec = parse_spec("report", {"figures": [name], "records": records,
                                 "workloads": list(workloads)})
    log = _Payload()
    with tempfile.TemporaryDirectory() as out_dir:
        run_figures(spec, Path(out_dir), log, jobs=bench_jobs(),
                    cache=bench_cache())
    return log.data


def print_table(title: str, rows: Mapping[str, Mapping[str, object]]) -> None:
    """Render {row: {column: value}} as an aligned text table."""
    print(f"\n=== {title} ===")
    columns = []
    for row in rows.values():
        for col in row:
            if col not in columns:
                columns.append(col)
    width = max((len(str(r)) for r in rows), default=8) + 2
    header = " " * width + "".join(f"{str(c):>14}" for c in columns)
    print(header)
    for name, row in rows.items():
        cells = []
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                cells.append(f"{value:>14.3f}")
            else:
                cells.append(f"{str(value):>14}")
        print(f"{str(name):<{width}}" + "".join(cells))


def print_series(title: str, series: Mapping[str, Mapping[object, float]]) -> None:
    """Render {name: {x: y}} sweeps."""
    print(f"\n=== {title} ===")
    for name, points in series.items():
        pts = "  ".join(f"{x}:{y:.3f}" for x, y in points.items())
        print(f"  {name}: {pts}")


def geomean(values) -> float:
    import math

    values = [max(v, 1e-12) for v in values]
    return math.exp(sum(map(math.log, values)) / len(values)) if values else 0.0
