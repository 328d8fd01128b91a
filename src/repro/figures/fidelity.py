"""Paper-fidelity scoring: reproduced numbers vs the paper's numbers.

The paper reports concrete values for several evaluation figures (the
6.11x mean speedup of Fig. 14, Table III's per-workload flash read
latencies, the SS VI-B cost arithmetic, ...).  Those values live as
``PAPER_EXPECTED`` annotations **next to the figure that reproduces
them** (e.g. :data:`repro.experiments.overall.PAPER_EXPECTED`); this
module turns them into :class:`Expectation` objects -- paper value +
an extractor over the figure's JSON payload + tolerance thresholds --
and evaluates them into the report's fidelity table.

Classification is by relative delta ``(reproduced - paper) / |paper|``:

* ``pass`` -- within ``pass_tol`` of the paper's number;
* ``warn`` -- within ``warn_tol``: the right shape, scaled-down
  magnitude (expected: this reproduction runs a few thousand records
  per thread at 1/512 capacity, not the paper's full traces);
* ``off`` -- beyond ``warn_tol``: investigate before trusting the cell;
* ``n/a`` -- not measurable from this payload (e.g. a smoke run that
  swept a workload subset).

``off`` rows do not fail CI -- the report is evidence, not a gate --
but the golden fidelity suite pins exact numbers per backend, so a
silent regression still trips tier-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.figures.spec import _norm, geomean

#: Default tolerances: within 25% passes, within 150% is the expected
#: scaled-down-warm band, beyond is flagged.
PASS_TOL = 0.25
WARN_TOL = 1.5

Extractor = Callable[[dict], Optional[float]]


@dataclass(frozen=True)
class Expectation:
    """One paper-reported number and how to measure it from a payload."""

    figure: str
    metric: str
    paper: float
    extract: Extractor
    pass_tol: float = PASS_TOL
    warn_tol: float = WARN_TOL
    note: str = ""


@dataclass(frozen=True)
class FidelityRow:
    """One evaluated fidelity-table row."""

    figure: str
    metric: str
    paper: float
    reproduced: Optional[float]
    delta: Optional[float]  # relative; None when not measurable
    status: str  # "pass" | "warn" | "off" | "n/a"
    note: str = ""


def classify(paper: float, reproduced: Optional[float],
             pass_tol: float = PASS_TOL,
             warn_tol: float = WARN_TOL) -> FidelityRow:
    """Classify a reproduced value against a paper value.

    Returns a partially-filled row (figure/metric blank); the relative
    delta divides by ``max(|paper|, 1e-12)`` so a zero paper value
    cannot divide by zero.
    """
    if reproduced is None or not math.isfinite(reproduced):
        return FidelityRow("", "", paper, None, None, "n/a")
    delta = (reproduced - paper) / max(abs(paper), 1e-12)
    if abs(delta) <= pass_tol:
        status = "pass"
    elif abs(delta) <= warn_tol:
        status = "warn"
    else:
        status = "off"
    return FidelityRow("", "", paper, float(reproduced), delta, status)


# ---------------------------------------------------------------------------
# Extractors (payloads are JSON-normalized figure payloads)
# ---------------------------------------------------------------------------


def _agg(values: Sequence[float], how: str) -> Optional[float]:
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


def _fig2(how: str) -> Extractor:
    def extract(data: dict) -> Optional[float]:
        return _agg([row.get("slowdown") for row in data.values()], how)
    return extract


def _fig3_fast_fraction(data: dict) -> Optional[float]:
    return _agg(
        [row.get("CXL-SSD", {}).get("fast_fraction") for row in data.values()],
        "mean",
    )


def _fig4(field: str, how: str) -> Extractor:
    def extract(data: dict) -> Optional[float]:
        return _agg([row.get(field) for row in data.values()], how)
    return extract


def _fig9_best_threshold(data: dict) -> Optional[float]:
    by_threshold: Dict[float, List[float]] = {}
    for row in data.values():
        for threshold, value in row.items():
            by_threshold.setdefault(float(threshold), []).append(float(value))
    if not by_threshold:
        return None
    means = {t: sum(vs) / len(vs) for t, vs in by_threshold.items()}
    return min(sorted(means), key=lambda t: means[t])


def _fig9_max_degradation(data: dict) -> Optional[float]:
    worst = [max(float(v) for v in row.values())
             for row in data.values() if row]
    return _agg(worst, "max")


def _fig14_full_speedup(data: dict) -> Optional[float]:
    speedups = []
    for row in data.values():
        normalized = row.get("SkyByte-Full")
        if normalized:
            speedups.append(1.0 / float(normalized))
    return _agg(speedups, "geomean")


def _table3(workload: str) -> Extractor:
    def extract(data: dict) -> Optional[float]:
        value = data.get(workload)
        return None if value is None else float(value)
    return extract


def _cost(key: str) -> Extractor:
    def extract(data: dict) -> Optional[float]:
        value = data.get(key)
        return None if value is None else float(value)
    return extract


# ---------------------------------------------------------------------------
# The expectation registry (paper values live with the figures)
# ---------------------------------------------------------------------------


def _build_expectations() -> List[Expectation]:
    # Imported here: the figure modules import this package.
    from repro.experiments import cost, design, motivation, overall

    m = motivation.PAPER_EXPECTED
    d = design.PAPER_EXPECTED
    o = overall.PAPER_EXPECTED
    c = cost.PAPER_EXPECTED
    rows: List[Expectation] = [
        Expectation("fig2", "min slowdown over DRAM",
                    m["fig2"]["slowdown_min"], _fig2("min"),
                    note="min over the workloads present"),
        Expectation("fig2", "max slowdown over DRAM",
                    m["fig2"]["slowdown_max"], _fig2("max"),
                    note="max over the workloads present"),
        Expectation("fig3", "CXL-SSD fast-served fraction",
                    m["fig3"]["cssd_fast_fraction"], _fig3_fast_fraction,
                    pass_tol=0.1, warn_tol=0.5,
                    note="mean fraction of requests under 300 ns"),
        Expectation("fig4", "memory-bound fraction, DRAM (min)",
                    m["fig4"]["dram_memory_bound"][0],
                    _fig4("dram_memory_bound", "min")),
        Expectation("fig4", "memory-bound fraction, DRAM (max)",
                    m["fig4"]["dram_memory_bound"][1],
                    _fig4("dram_memory_bound", "max")),
        Expectation("fig4", "memory-bound fraction, CXL-SSD (min)",
                    m["fig4"]["cssd_memory_bound"][0],
                    _fig4("cssd_memory_bound", "min")),
        Expectation("fig4", "memory-bound fraction, CXL-SSD (max)",
                    m["fig4"]["cssd_memory_bound"][1],
                    _fig4("cssd_memory_bound", "max")),
        Expectation("fig9", "best trigger threshold (us)",
                    d["fig9"]["best_threshold_us"], _fig9_best_threshold,
                    pass_tol=0.0, warn_tol=4.0,
                    note="argmin of mean normalized time"),
        Expectation("fig9", "worst-case degradation (x)",
                    d["fig9"]["max_degradation"], _fig9_max_degradation,
                    note="max normalized time over thresholds"),
        Expectation("fig14", "SkyByte-Full geomean speedup (x)",
                    o["fig14"]["skybyte_full_geomean_speedup"],
                    _fig14_full_speedup,
                    note="geomean of 1/normalized time"),
        Expectation("cost", "DRAM:flash $ ratio (x)",
                    c["cost"]["cost_ratio"], _cost("cost_ratio"),
                    pass_tol=0.05, warn_tol=0.5,
                    note="pure price arithmetic -- must match"),
        Expectation("cost", "performance fraction of DRAM-Only",
                    c["cost"]["performance_fraction_geomean"],
                    _cost("performance_fraction_geomean")),
        Expectation("cost", "cost-effectiveness (x)",
                    c["cost"]["cost_effectiveness"],
                    _cost("cost_effectiveness")),
    ]
    rows.extend(
        Expectation("table3", f"flash read latency, {workload} (us)",
                    paper_us, _table3(workload))
        for workload, paper_us in o["table3"]["read_latency_us"].items()
    )
    return rows


_EXPECTATIONS: Optional[List[Expectation]] = None


def all_expectations() -> List[Expectation]:
    global _EXPECTATIONS
    if _EXPECTATIONS is None:
        _EXPECTATIONS = _build_expectations()
    return list(_EXPECTATIONS)


def expectations_for(figure: str) -> List[Expectation]:
    return [e for e in all_expectations() if e.figure == figure]


def evaluate(figure: str, data: object) -> List[FidelityRow]:
    """Fidelity rows for one figure's payload ([] if none registered)."""
    payload = _norm(data)
    rows: List[FidelityRow] = []
    for exp in expectations_for(figure):
        try:
            reproduced = exp.extract(payload)
        except (AttributeError, KeyError, TypeError, ValueError,
                ZeroDivisionError):
            reproduced = None
        scored = classify(exp.paper, reproduced, exp.pass_tol, exp.warn_tol)
        rows.append(FidelityRow(
            figure=exp.figure,
            metric=exp.metric,
            paper=exp.paper,
            reproduced=scored.reproduced,
            delta=scored.delta,
            status=scored.status,
            note=exp.note,
        ))
    return rows
