"""Design-space experiments: Figs. 9 and 10 (§III-A).

Fig. 9 sweeps the context-switch trigger threshold of Algorithm 1;
Fig. 10 compares the RR / Random / CFS thread scheduling policies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import T_POLICIES
from repro.experiments.orchestrator import SweepJob
from repro.experiments.runner import default_records
from repro.figures.spec import (ChartSpec, Claim, Expectation, Figure,
                                aggregate, bar, check, fsorted, line,
                                per_workload)
from repro.workloads.suites import representative_four

#: Paper-reported reference points (SS III-A), Fig. 9's expectations:
#: the 2 us trigger threshold wins, and larger thresholds degrade
#: execution time by up to ~2x.
PAPER_EXPECTED = {
    "fig9": {"best_threshold_us": 2.0, "max_degradation": 2.0},
}

#: The thresholds of Fig. 9, in microseconds.
FIG9_THRESHOLDS_US = (2, 10, 20, 40, 60, 80)


def _fig9_cells(workloads: Sequence[str], records: Optional[int]) -> List[SweepJob]:
    records = records or default_records()
    return [
        SweepJob.make(
            wl, "SkyByte-Full", records_per_thread=records,
            cs_threshold_ns=threshold * 1000.0,
        )
        for wl in workloads
        for threshold in FIG9_THRESHOLDS_US
    ]


def _fig9(workloads, _records, results) -> Dict[str, Dict[float, float]]:
    """Fig. 9: normalized execution time vs trigger threshold.

    Returns {workload: {threshold_us: normalized_time}} where 1.0 is the
    2 us (default) threshold.  The paper: 2 us is best; larger thresholds
    forfeit switches and degrade up to ~2x.
    """
    sweep = iter(results)
    rows: Dict[str, Dict[float, float]] = {}
    for wl in workloads:
        base_ipns = None
        per_threshold: Dict[float, float] = {}
        for threshold in FIG9_THRESHOLDS_US:
            ipns = max(next(sweep).stats.throughput_ipns, 1e-12)
            if base_ipns is None:
                base_ipns = ipns
            per_threshold[threshold] = base_ipns / ipns  # normalized execution time
        rows[wl] = per_threshold
    return rows


def _fig10_cells(workloads: Sequence[str], records: Optional[int]) -> List[SweepJob]:
    records = records or default_records()
    return [
        SweepJob.make(
            wl, "SkyByte-Full", records_per_thread=records,
            t_policy=sched_policy,
        )
        for wl in workloads
        for sched_policy in T_POLICIES
    ]


def _fig10(workloads, _records, results) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Fig. 10: execution time and its breakdown under RR/Random/CFS.

    Returns, per workload and policy, normalized execution time (RR = 1)
    plus the compute/memory/context-switch boundedness fractions.  The
    paper finds the three policies deliver similar performance.
    """
    sweep = iter(results)
    rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    for wl in workloads:
        rr_ipns = None
        per_policy: Dict[str, Dict[str, float]] = {}
        for sched_policy in T_POLICIES:
            r = next(sweep)
            ipns = max(r.stats.throughput_ipns, 1e-12)
            if rr_ipns is None:
                rr_ipns = ipns
            bd = r.stats.boundedness()
            per_policy[sched_policy] = {
                "normalized_time": rr_ipns / ipns,
                "memory": bd["memory"],
                "compute": bd["compute"],
                "context_switch": bd["context_switch"],
                "switches": float(r.stats.context_switches),
            }
        rows[wl] = per_policy
    return rows


def _shape_fig9(data):
    return [line(
        "Fig. 9: context-switch trigger threshold sweep",
        {wl: [(float(t), row[t]) for t in fsorted(row)]
         for wl, row in data.items()},
        "trigger threshold (us)", "normalized execution time (2 us = 1)",
    )]


def _shape_fig10(data):
    return [bar(
        "Fig. 10: scheduling policies (RR / Random / CFS)",
        {wl: {policy: row[policy]["normalized_time"] for policy in row}
         for wl, row in data.items()},
        "normalized execution time (RR = 1)",
    )]


# -- what the paper says -----------------------------------------------------


def _best_threshold(data: dict):
    """The threshold with the lowest mean normalized time."""
    by_threshold: Dict[float, List[float]] = {}
    for row in data.values():
        for threshold, value in row.items():
            by_threshold.setdefault(float(threshold), []).append(float(value))
    if not by_threshold:
        return None
    means = {t: sum(vs) / len(vs) for t, vs in by_threshold.items()}
    return min(sorted(means), key=lambda t: means[t])


def _max_degradation(data: dict):
    worst = [max(float(v) for v in row.values())
             for row in data.values() if row]
    return aggregate(worst, "max")


FIG9_EXPECTED = (
    Expectation("best trigger threshold (us)",
                PAPER_EXPECTED["fig9"]["best_threshold_us"], _best_threshold,
                pass_tol=0.0, warn_tol=4.0,
                note="argmin of mean normalized time"),
    Expectation("worst-case degradation (x)",
                PAPER_EXPECTED["fig9"]["max_degradation"], _max_degradation,
                note="max normalized time over thresholds"),
)
FIG9_CLAIMS = (
    Claim("times are normalized to the 2 us threshold (2 us = 1.0)",
          per_workload(lambda r: check(r["2"] == 1.0, t2=r["2"]))),
    Claim("the 80 us threshold does not beat the 2 us default by more "
          "than noise (>= 0.9)",
          per_workload(lambda r: check(r["80"] >= 0.9, t80=r["80"]))),
)


def _policy_spread(row: dict):
    times = [p["normalized_time"] for p in row.values()]
    spread = max(times) / min(times)
    return check(spread < 1.4, max_over_min=spread)


FIG10_CLAIMS = (
    Claim("the three policies are within 40% of each other",
          per_workload(_policy_spread)),
)


FIGURES = (
    Figure(ChartSpec("fig9", "Context-switch threshold sweep", "SS III-A",
                     "line", "Normalized execution time vs the Algorithm 1 "
                     "trigger threshold (paper: 2 us is best).", _shape_fig9),
           _fig9, _fig9_cells, tuple(representative_four()), FIG9_EXPECTED,
           FIG9_CLAIMS),
    Figure(ChartSpec("fig10", "Scheduling policies", "SS III-A", "bar",
                     "Execution time under the three OS scheduling policies "
                     "(paper: near-identical).", _shape_fig10),
           _fig10, _fig10_cells, ("bc", "radix", "srad", "tpcc"),
           claims=FIG10_CLAIMS),
)
