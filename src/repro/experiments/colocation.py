"""Multi-tenant colocation study: who pays when tenants share a device.

The paper's evaluation runs one application per device.  This driver
answers the question a shared CXL-SSD deployment actually faces: when N
tenants colocate, how much does each slow down relative to running
alone, and *where* does the interference land (queueing in front of
flash, write-log pressure, cache contention)?

Method:

* every tenant's **solo** baseline runs through the normal sweep
  pipeline (so it parallelises, caches and distributes like any other
  cell);
* the **colocated** run replays all tenants' traces -- rebased into
  disjoint address partitions by
  :func:`repro.scenarios.colocate.build_colocation` -- on one
  :class:`ColocatedSystem`, which attributes per-thread behaviour back
  to tenants: each tenant gets its own host-side
  :class:`~repro.sim.stats.SimStats` (request classes, AMAT components,
  off-chip latency histogram) plus its completion time;
* per-tenant slowdown is the ratio of colocated to solo
  time-per-instruction, the same normalized-time metric every paper
  figure uses.

Attribution notes: the tenant stats are the *host-observable* view.
Device-side counters (flash traffic, GC) are genuinely shared and are
reported once, for the device.  Accesses squashed by a context switch
are reversed in the global stats (as the paper specifies) but not in
the per-tenant view, which counts issued requests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import SimConfig, scaled_config
from repro.experiments.orchestrator import SweepJob, run_sweep
from repro.experiments.runner import DEFAULT_SCALE, default_records
from repro.scenarios.colocate import (
    ColocationPlan,
    Tenant,
    build_colocation,
)
from repro.sim.stats import HOST_DRAM, SimStats
from repro.sim.system import System
from repro.variants import DesignVariant, get_variant

#: The default tenant mix: a latency-sensitive point-lookup tier
#: colocated with a scan-heavy ingest pipeline -- the classic
#: noisy-neighbour pairing.
DEFAULT_TENANTS = (
    Tenant(name="web-tier", scenario="web-tier", threads=4, seed=42),
    Tenant(name="log-ingest", scenario="log-ingest", threads=4, seed=43),
)

#: AMAT component keys as :meth:`SimStats.record_amat` spells them.
_AMAT_KEYS = ("host_dram", "protocol", "indexing", "ssd_dram", "flash")


class ColocatedSystem(System):
    """A :class:`System` that attributes per-thread activity to tenants.

    The simulation itself is completely standard -- one device, one
    scheduler, one global :class:`SimStats`.  On top of that, every
    memory access is mirrored into the issuing tenant's stats object,
    and thread completions record per-tenant makespans.
    """

    def __init__(
        self,
        config: SimConfig,
        plan: ColocationPlan,
        variant: DesignVariant,
    ) -> None:
        super().__init__(config, plan.traces, variant, workload_mlp=plan.mlp)
        self.plan = plan
        self.tenant_stats: List[SimStats] = [SimStats() for _ in plan.tenants]
        self.tenant_end_ns: List[float] = [0.0] * len(plan.tenants)
        # Instruction accounting matches the cores' (window gaps only),
        # so tenant time-per-instruction is directly comparable to the
        # solo baseline's stats.instructions.
        for trace, owner in zip(plan.traces, plan.tenant_of_thread):
            self.tenant_stats[owner].instructions += sum(r[0] for r in trace)

    def _mirror_access(
        self, tid: int, request_class: str, latency: float,
        breakdown: Dict[str, float],
    ) -> None:
        """Mirror one access into the issuing tenant's stats; called by
        the window loop for every issued access."""
        tenant = self.tenant_stats[self.plan.tenant_of_thread[tid]]
        tenant.count_request(request_class)
        tenant.record_offchip(max(1.0, latency))
        tenant.record_amat(**{
            key: float(breakdown.get(key, 0.0)) for key in _AMAT_KEYS
        })

    def dram_window_access(self, ops, now, tid: int = -1):
        """DRAM-only window with per-tenant mirroring: attribution
        replays the window's latency arithmetic on the returned
        completion times."""
        completes = super().dram_window_access(ops, now, tid)
        if self.stats.enabled and tid >= 0:
            for complete in completes:
                latency = complete - now
                self._mirror_access(tid, HOST_DRAM, latency,
                                    {"host_dram": latency})
        return completes

    def on_thread_done(self, thread) -> None:
        super().on_thread_done(thread)
        index = self.plan.tenant_of_thread[thread.tid]
        self.tenant_end_ns[index] = max(
            self.tenant_end_ns[index], self.engine.now
        )
        self.tenant_stats[index].end_ns = self.tenant_end_ns[index]


def run_colocation(
    tenants: Sequence[Tenant],
    variant: str = "SkyByte-Full",
    scale: int = DEFAULT_SCALE,
    records_per_thread: Optional[int] = None,
    seed: int = 42,
    timing: str = "ULL",
    max_ns: Optional[float] = None,
    isolation: str = "none",
    weights: Optional[Sequence[float]] = None,
    priorities: Optional[Sequence[int]] = None,
    slo_read_ns: float = 20_000.0,
) -> ColocatedSystem:
    """Build and execute one colocated run; returns the finished system.

    ``isolation`` selects a tenant-QoS mechanism (``"wfq"``,
    ``"priority"``, ``"log-partition"``, ``"cache-quota"``; see
    ``docs/QOS.md``).  The default ``"none"`` leaves the config -- and
    therefore every digest -- exactly as before.
    """
    records = records_per_thread or default_records()
    plan = build_colocation(tenants, scale=scale, records_per_thread=records)
    design = get_variant(variant)
    config = scaled_config(
        scale=scale, threads=len(plan.traces), timing=timing, seed=seed
    ).replace(warmup_fraction=0.1)
    if isolation != "none":
        config = config.replace(qos=plan.qos_config(
            isolation, weights=weights, priorities=priorities,
            slo_read_ns=slo_read_ns,
        ))
    system = ColocatedSystem(config, plan, design)
    system.run(max_ns=max_ns)
    return system


def colocation_study(
    tenants: Optional[Sequence[Tenant]] = None,
    variant: str = "SkyByte-Full",
    records: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: object = None,
    backend: object = None,
    progress: object = None,
    policy: object = None,
) -> Dict[str, object]:
    """Per-tenant slowdown and breakdown for a colocated tenant mix.

    Returns ``{"variant", "tenants": {name: {...}}, "device": {...}}``
    where each tenant row carries its solo/colocated time-per-
    instruction, the slowdown ratio, and its request-class and AMAT
    breakdowns from the colocated run.  Solo baselines fan out through
    :func:`~repro.experiments.orchestrator.run_sweep`; the colocated
    composition runs in-process (it is a single multi-tenant cell, like
    the replay-based Figs. 5/6).
    """
    tenants = list(tenants or DEFAULT_TENANTS)
    records = records or default_records()
    solo_jobs = [
        SweepJob.make(
            tenant.scenario,
            variant,
            records_per_thread=tenant.records_per_thread or records,
            threads=tenant.threads,
            seed=tenant.seed,
        )
        for tenant in tenants
    ]
    solo = run_sweep(solo_jobs, jobs=jobs, cache=cache, backend=backend,
                     progress=progress, policy=policy)
    system = run_colocation(tenants, variant=variant,
                            records_per_thread=records)

    rows: Dict[str, object] = {}
    for index, tenant in enumerate(tenants):
        stats = system.tenant_stats[index]
        solo_stats = solo[index].stats
        solo_tpi = solo_stats.execution_ns / max(solo_stats.instructions, 1)
        coloc_tpi = stats.execution_ns / max(stats.instructions, 1)
        rows[tenant.name] = {
            "scenario": tenant.scenario,
            "threads": tenant.threads,
            "partition_pages": system.plan.partitions[index][1],
            "solo_time_per_instr_ns": solo_tpi,
            "colocated_time_per_instr_ns": coloc_tpi,
            "slowdown": coloc_tpi / max(solo_tpi, 1e-12),
            "requests": stats.request_breakdown(),
            "amat_ns": stats.amat_ns,
            "amat": stats.amat_breakdown(),
        }
    device = system.stats
    return {
        "variant": variant,
        "records_per_thread": records,
        "tenants": rows,
        "device": {
            "execution_ns": device.execution_ns,
            "flash_page_reads": device.flash_page_reads,
            "flash_page_writes": device.flash_page_writes,
            "gc_invocations": device.gc_invocations,
            "context_switches": device.context_switches,
            "log_appends": device.log_appends,
        },
    }
