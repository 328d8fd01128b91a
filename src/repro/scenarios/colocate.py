"""Multi-tenant colocation: interleave N scenarios onto one device.

The paper evaluates one application at a time, but a CXL-SSD sold as
cheap expanded memory will be *shared*: several tenants hammering one
device, each seeing the others only through queueing, cache pressure,
GC and write-log contention.  This module builds the combined workload:

* each tenant is a :class:`Tenant` naming a scenario (composite or
  Table I), a thread count and a seed;
* tenants get **disjoint address partitions** -- tenant *i*'s footprint
  is rebased past the footprints before it, so there is no accidental
  sharing and any interference measured is purely device-level;
* the combined per-thread traces replay through a completely standard
  :class:`~repro.sim.system.System` (the simulator does not know about
  tenants), while the plan's ``tenant_of_thread`` map lets the
  colocation driver attribute per-thread behaviour back to tenants.

Plans serialize into tracefile metadata, so a colocation trace captured
on one machine replays bit-exactly anywhere (the CI smoke test replays
one on the local and distributed backends and asserts identical stats).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import PAGE_SIZE
from repro.scenarios.library import get_scenario
from repro.scenarios.phases import Scenario
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class Tenant:
    """One colocated workload: a scenario plus its share of threads."""

    name: str
    scenario: str
    threads: int = 2
    records_per_thread: Optional[int] = None
    seed: int = 42

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "threads": self.threads,
            "records_per_thread": self.records_per_thread,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Tenant":
        records = data.get("records_per_thread")
        return cls(
            name=str(data["name"]),
            scenario=str(data["scenario"]),
            threads=int(data.get("threads", 2)),
            records_per_thread=None if records is None else int(records),
            seed=int(data.get("seed", 42)),
        )


@dataclass
class ColocationPlan:
    """The built colocation: combined traces plus the attribution maps."""

    tenants: List[Tenant]
    scenarios: List[Scenario]
    traces: List[Trace]
    #: Global thread id -> tenant index.
    tenant_of_thread: List[int]
    #: Per tenant: (base_page, pages) of its address partition.
    partitions: List[Tuple[int, int]]
    scale: int
    records_per_thread: int

    @property
    def total_pages(self) -> int:
        base, pages = self.partitions[-1]
        return base + pages

    @property
    def mlp(self) -> int:
        """The combined run's memory-level parallelism: the thread mix is
        heterogeneous, so use the median tenant MLP (one core model serves
        all threads)."""
        values = sorted(s.mlp for s in self.scenarios)
        return values[len(values) // 2]

    def meta(self) -> Dict[str, object]:
        """Tracefile metadata block describing this plan."""
        return {
            "tenants": [t.to_dict() for t in self.tenants],
            "tenant_of_thread": list(self.tenant_of_thread),
            "partitions": [list(p) for p in self.partitions],
            "scenarios": [s.to_dict() for s in self.scenarios],
            "scale": self.scale,
            "records_per_thread": self.records_per_thread,
            "mlp": self.mlp,
        }

    def qos_config(
        self,
        isolation: str,
        weights: Optional[Sequence[float]] = None,
        priorities: Optional[Sequence[int]] = None,
        slo_read_ns: float = 20_000.0,
    ) -> "QoSConfig":
        """A :class:`~repro.config.QoSConfig` activating ``isolation``
        for this plan's tenants.  Everything a backend needs (partitions,
        thread ownership, weights) is baked in, so embedding the result
        in a trace's config makes replay QoS-identical anywhere."""
        from repro.config import QoSConfig

        n = len(self.tenants)
        return QoSConfig(
            isolation=isolation,
            partitions=tuple((base, pages) for base, pages in self.partitions),
            tenant_of_thread=tuple(self.tenant_of_thread),
            weights=tuple(weights) if weights is not None
            else (1.0,) * n,
            priorities=tuple(priorities) if priorities is not None
            else (0,) * n,
            slo_read_ns=slo_read_ns,
        )


def build_colocation(
    tenants: Sequence[Tenant],
    scale: int,
    records_per_thread: int,
) -> ColocationPlan:
    """Generate every tenant's traces and rebase them into disjoint
    partitions of one device address space.

    Thread order is tenant order (tenant 0's threads first), matching
    how the scheduler will enqueue them; partition order likewise, so
    the layout is reproducible from the tenant list alone.
    """
    if not tenants:
        raise ValueError("colocation needs at least one tenant")
    scenarios = [get_scenario(t.scenario) for t in tenants]
    traces: List[Trace] = []
    tenant_of_thread: List[int] = []
    partitions: List[Tuple[int, int]] = []
    base_page = 0
    for index, (tenant, scenario) in enumerate(zip(tenants, scenarios)):
        records = tenant.records_per_thread or records_per_thread
        pages = scenario.footprint_pages(scale)
        offset = base_page * PAGE_SIZE
        for trace in scenario.generate(
            tenant.threads, records, scale=scale, seed=tenant.seed
        ):
            traces.append(trace.shifted(offset))
            tenant_of_thread.append(index)
        partitions.append((base_page, pages))
        base_page += pages
    return ColocationPlan(
        tenants=list(tenants),
        scenarios=scenarios,
        traces=traces,
        tenant_of_thread=tenant_of_thread,
        partitions=partitions,
        scale=scale,
        records_per_thread=records_per_thread,
    )


def tenants_from_names(
    names: Sequence[str],
    threads: int = 2,
    seed: int = 42,
) -> List[Tenant]:
    """Tenants for a list of scenario names (CLI convenience).

    Duplicate names get distinct tenant labels (``web-tier``,
    ``web-tier-2``, ...) and shifted seeds so they do not generate
    identical traces.
    """
    tenants: List[Tenant] = []
    seen: Dict[str, int] = {}
    for name in names:
        canonical = get_scenario(name).name
        seen[canonical] = seen.get(canonical, 0) + 1
        label = canonical if seen[canonical] == 1 else (
            f"{canonical}-{seen[canonical]}"
        )
        tenants.append(Tenant(
            name=label,
            scenario=canonical,
            threads=threads,
            seed=seed + 101 * (seen[canonical] - 1),
        ))
    return tenants
