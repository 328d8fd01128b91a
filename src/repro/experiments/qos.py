"""Tenant QoS at scale: SLO sweep across isolation mechanisms.

The colocation study (PR 5) *measures* interference between a handful of
tenants; this figure *manages* it.  It sweeps tenant count -- into the
hundreds if asked -- over a scenario mix drawn from
:mod:`repro.scenarios.library`, once per isolation mechanism
(``docs/QOS.md``):

* ``none`` -- the unprotected shared device (the baseline);
* ``wfq`` -- weighted-fair flash admission + weighted host CFS;
* ``priority`` -- strict-priority flash admission + host scheduling;
* ``log-partition`` -- per-tenant write-log shares;
* ``cache-quota`` -- per-tenant data-cache quotas.

Because tail behaviour is the whole point of tenant QoS (means hide the
victims), every payload row reports per-tenant **p99** off-chip latency
and the **SLO-violation rate** -- the fraction of a tenant's requests
whose latency bucket exceeds ``slo_read_ns`` -- from the per-tenant
latency histograms kept by
:class:`~repro.experiments.colocation.ColocatedSystem`.

The default mix assigns the latency-sensitive scenarios (``web-tier``,
``graph-walk``) weight 2.0 / priority 1 and the scan-heavy ones
(``analytics-scan``, ``log-ingest``) weight 1.0 / priority 0, so the
wfq and priority mechanisms have a stated goal the figure can check:
protect the point-lookup tiers from the scanners.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import ISOLATIONS
from repro.experiments.colocation import run_colocation
from repro.experiments.runner import DEFAULT_SCALE, default_records
from repro.figures.spec import ChartSpec, Figure, line, stacked
from repro.scenarios.colocate import Tenant

#: Scenario mix cycled across tenants (library composites).
DEFAULT_MIX = ("web-tier", "analytics-scan", "graph-walk", "log-ingest")

#: Scenarios treated as latency-sensitive by the default weight/priority
#: assignment.
LATENCY_SENSITIVE = ("web-tier", "graph-walk")


DEFAULT_TENANT_COUNTS = (2, 8, 32)
VARIANT = "SkyByte-Full"
#: The read SLO a request violates when its latency bucket exceeds it.
SLO_READ_NS = 20_000.0


def mix_tenants(
    count: int,
    mix: Sequence[str] = DEFAULT_MIX,
    seed: int = 42,
    records_per_thread: Optional[int] = None,
) -> List[Tenant]:
    """``count`` single-threaded tenants cycling through ``mix``.

    One thread per tenant keeps the thread count linear in the tenant
    count, which is what lets the sweep reach hundreds of tenants.
    """
    return [
        Tenant(
            name=f"{mix[i % len(mix)]}-{i}",
            scenario=mix[i % len(mix)],
            threads=1,
            records_per_thread=records_per_thread,
            seed=seed + i,
        )
        for i in range(count)
    ]


def tenant_weights(tenants: Sequence[Tenant]) -> List[float]:
    return [2.0 if t.scenario in LATENCY_SENSITIVE else 1.0
            for t in tenants]


def tenant_priorities(tenants: Sequence[Tenant]) -> List[int]:
    return [1 if t.scenario in LATENCY_SENSITIVE else 0 for t in tenants]


def _reduce(_workloads, records, _results) -> Dict[str, object]:
    """Tail latency and SLO violations vs tenant count per mechanism.

    Returns ``{"sweep": {isolation: {count: row}}}`` where each row has
    per-tenant p99s, the worst/mean p99, the aggregate SLO-violation
    rate, and the per-scenario violation rates that feed the stacked
    figure.  Runs execute in-process: a colocated system is a single
    multi-tenant cell, like the ``colocation`` figure's.
    """
    records = records or default_records()
    sweep: Dict[str, Dict[str, object]] = {}
    for isolation in ISOLATIONS:
        by_count: Dict[str, object] = {}
        for count in DEFAULT_TENANT_COUNTS:
            tenants = mix_tenants(count, records_per_thread=records)
            system = run_colocation(
                tenants,
                variant=VARIANT,
                scale=DEFAULT_SCALE,
                records_per_thread=records,
                seed=42,
                isolation=isolation,
                weights=tenant_weights(tenants),
                priorities=tenant_priorities(tenants),
                slo_read_ns=SLO_READ_NS,
            )
            by_count[str(count)] = _row(system, tenants, SLO_READ_NS)
        sweep[isolation] = by_count

    return {
        "variant": VARIANT,
        "records_per_thread": records,
        "slo_read_ns": SLO_READ_NS,
        "mix": list(DEFAULT_MIX),
        "tenant_counts": list(DEFAULT_TENANT_COUNTS),
        "isolations": list(ISOLATIONS),
        "sweep": sweep,
    }


def _row(system, tenants: Sequence[Tenant],
         slo_read_ns: float) -> Dict[str, object]:
    """One sweep cell: per-tenant tails plus per-scenario aggregates."""
    p99: Dict[str, float] = {}
    by_scenario_viol: Dict[str, int] = {}
    by_scenario_total: Dict[str, int] = {}
    violations = 0
    total = 0
    for tenant, stats in zip(tenants, system.tenant_stats):
        hist = stats.offchip_latency
        p99[tenant.name] = hist.percentile(99)
        above = hist.count_above(slo_read_ns)
        violations += above
        total += hist.count
        by_scenario_viol[tenant.scenario] = (
            by_scenario_viol.get(tenant.scenario, 0) + above
        )
        by_scenario_total[tenant.scenario] = (
            by_scenario_total.get(tenant.scenario, 0) + hist.count
        )
    values = list(p99.values())
    return {
        "p99_ns": p99,
        "worst_p99_ns": max(values) if values else 0.0,
        "mean_p99_ns": sum(values) / len(values) if values else 0.0,
        "slo_violation_rate": violations / total if total else 0.0,
        "violation_rate_by_scenario": {
            name: by_scenario_viol[name] / by_scenario_total[name]
            if by_scenario_total[name] else 0.0
            for name in sorted(by_scenario_total)
        },
        "execution_ns": system.stats.execution_ns,
        "context_switches": system.stats.context_switches,
    }


def _shape(data):
    """SLO-violation stack at the largest tenant count, plus the
    worst-tenant p99 scaling curve -- the stacked + line pair of the
    tenant-QoS figure (see docs/QOS.md)."""
    sweep = data["sweep"]
    counts = [str(c) for c in data["tenant_counts"]]
    top = counts[-1] if counts else None
    slo_us = float(data["slo_read_ns"]) / 1000.0
    charts = []
    if top is not None:
        charts.append(stacked(
            f"QoS: SLO-violation rate by scenario at {top} tenants",
            {isolation: dict(
                sweep[isolation][top]["violation_rate_by_scenario"])
             for isolation in data["isolations"]},
            "violation rate per scenario (stacked)",
            subtitle=f"fraction of requests slower than the "
                     f"{slo_us:g} us read SLO, per tenant scenario",
        ))
    charts.append(line(
        "QoS: worst-tenant p99 vs tenant count",
        {isolation: [
            (float(c), sweep[isolation][c]["worst_p99_ns"])
            for c in counts]
         for isolation in data["isolations"]},
        "tenants", "worst per-tenant p99 off-chip latency (ns)",
        log_x=True,
        subtitle=f"variant {data.get('variant', '?')}; "
                 "lower and flatter is better isolation",
    ))
    return charts


QOS = Figure(
    ChartSpec("qos", "Tenant QoS at scale", "repro QOS", "line",
              "Per-tenant p99 and SLO-violation rate vs tenant count under "
              "each isolation mechanism (see docs/QOS.md).", _shape),
    _reduce)
