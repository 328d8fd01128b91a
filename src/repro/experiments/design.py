"""Design-space experiments: Figs. 9 and 10 (§III-A).

Fig. 9 sweeps the context-switch trigger threshold of Algorithm 1;
Fig. 10 compares the RR / Random / CFS thread scheduling policies.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.config import T_POLICIES
from repro.experiments.orchestrator import SweepJob, run_sweep
from repro.experiments.runner import default_records
from repro.workloads.suites import representative_four

#: Paper-reported reference points (SS III-A) for the fidelity report:
#: the 2 us trigger threshold wins, and larger thresholds degrade
#: execution time by up to ~2x.
PAPER_EXPECTED = {
    "fig9": {"best_threshold_us": 2.0, "max_degradation": 2.0},
}

#: The thresholds of Fig. 9, in microseconds.
FIG9_THRESHOLDS_US = (2, 10, 20, 40, 60, 80)


def fig9_threshold_sweep(
    workloads: Optional[Sequence[str]] = None,
    thresholds_us: Sequence[float] = FIG9_THRESHOLDS_US,
    records: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: object = None,
    backend: object = None,
    progress: object = None,
    policy: object = None,
) -> Dict[str, Dict[float, float]]:
    """Fig. 9: normalized execution time vs trigger threshold.

    Returns {workload: {threshold_us: normalized_time}} where 1.0 is the
    2 us (default) threshold.  The paper: 2 us is best; larger thresholds
    forfeit switches and degrade up to ~2x.
    """
    workloads = list(workloads or representative_four())
    records = records or default_records()
    specs = [
        SweepJob.make(
            wl, "SkyByte-Full", records_per_thread=records,
            cs_threshold_ns=threshold * 1000.0,
        )
        for wl in workloads
        for threshold in thresholds_us
    ]
    results = iter(run_sweep(specs, jobs=jobs, cache=cache, backend=backend,
                             progress=progress, policy=policy))
    rows: Dict[str, Dict[float, float]] = {}
    for wl in workloads:
        base_ipns = None
        sweep: Dict[float, float] = {}
        for threshold in thresholds_us:
            ipns = max(next(results).stats.throughput_ipns, 1e-12)
            if base_ipns is None:
                base_ipns = ipns
            sweep[threshold] = base_ipns / ipns  # normalized execution time
        rows[wl] = sweep
    return rows


def fig10_scheduling_policies(
    workloads: Optional[Sequence[str]] = None,
    records: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: object = None,
    backend: object = None,
    progress: object = None,
    policy: object = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Fig. 10: execution time and its breakdown under RR/Random/CFS.

    Returns, per workload and policy, normalized execution time (RR = 1)
    plus the compute/memory/context-switch boundedness fractions.  The
    paper finds the three policies deliver similar performance.
    """
    workloads = list(workloads or ["bc", "radix", "srad", "tpcc"])
    records = records or default_records()
    specs = [
        SweepJob.make(
            wl, "SkyByte-Full", records_per_thread=records,
            t_policy=sched_policy,
        )
        for wl in workloads
        for sched_policy in T_POLICIES
    ]
    results = iter(run_sweep(specs, jobs=jobs, cache=cache, backend=backend,
                             progress=progress, policy=policy))
    rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    for wl in workloads:
        rr_ipns = None
        per_policy: Dict[str, Dict[str, float]] = {}
        for sched_policy in T_POLICIES:
            r = next(results)
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
