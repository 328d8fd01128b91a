"""Tenant QoS at scale: SLO sweep across isolation mechanisms.

The colocation study (PR 5) *measures* interference between a handful of
tenants; this driver *manages* it.  It sweeps tenant count -- into the
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
from repro.scenarios.colocate import Tenant

#: Scenario mix cycled across tenants (library composites).
DEFAULT_MIX = ("web-tier", "analytics-scan", "graph-walk", "log-ingest")

#: Scenarios treated as latency-sensitive by the default weight/priority
#: assignment.
LATENCY_SENSITIVE = ("web-tier", "graph-walk")


DEFAULT_TENANT_COUNTS = (2, 8, 32)


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


def qos_slo_study(
    records: Optional[int] = None,
    tenant_counts: Optional[Sequence[int]] = None,
    isolations: Optional[Sequence[str]] = None,
    mix: Sequence[str] = DEFAULT_MIX,
    variant: str = "SkyByte-Full",
    scale: int = DEFAULT_SCALE,
    seed: int = 42,
    slo_read_ns: float = 20_000.0,
) -> Dict[str, object]:
    """Tail latency and SLO violations vs tenant count per mechanism.

    Returns ``{"sweep": {isolation: {count: row}}}`` where each row has
    per-tenant p99s, the worst/mean p99, the aggregate SLO-violation
    rate, and the per-scenario violation rates that feed the stacked
    figure.  Runs execute in-process: a colocated system is a single
    multi-tenant cell, like the ``colocation`` figure's.
    """
    records = records or default_records()
    counts = [int(c) for c in (tenant_counts or DEFAULT_TENANT_COUNTS)]
    mechanisms = list(isolations or ISOLATIONS)

    sweep: Dict[str, Dict[str, object]] = {}
    for isolation in mechanisms:
        by_count: Dict[str, object] = {}
        for count in counts:
            tenants = mix_tenants(count, mix=mix, seed=seed,
                                  records_per_thread=records)
            system = run_colocation(
                tenants,
                variant=variant,
                scale=scale,
                records_per_thread=records,
                seed=seed,
                isolation=isolation,
                weights=tenant_weights(tenants),
                priorities=tenant_priorities(tenants),
                slo_read_ns=slo_read_ns,
            )
            by_count[str(count)] = _row(system, tenants, slo_read_ns)
        sweep[isolation] = by_count

    return {
        "variant": variant,
        "records_per_thread": records,
        "slo_read_ns": slo_read_ns,
        "mix": list(mix),
        "tenant_counts": counts,
        "isolations": mechanisms,
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
