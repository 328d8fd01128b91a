"""Tenant attribution and flash-queue QoS mechanisms.

Multi-tenant QoS needs two ingredients that are deliberately decoupled:

* :class:`TenantMap` -- pure attribution.  Built from the
  :class:`~repro.config.QoSConfig` embedded in a :class:`SimConfig`, it
  answers "which tenant owns this page / this thread" and carries the
  per-tenant weights and priorities.  Because everything it needs lives
  in the config, a trace replayed on any backend (in process, local
  cell processes, distributed service) reconstructs identical
  attribution.

* :class:`FlashPacingArbiter` -- the flash-queue scheduling mechanism
  ("wfq" / "priority" isolation).  The flash model completes commands
  synchronously at submit time and is fed out of order in simulated time
  (compaction paces programs into the future), so a classical
  virtual-time fair queue over future arrivals cannot be expressed.
  Instead the arbiter paces *admissions*: under contention, tenant ``t``
  on a channel with ``d`` dies is admitted at most once per
  ``read_ns * sum(w_active) / (w_t * d)`` nanoseconds -- exactly the
  GPS fluid rate for its weight share of the channel's aggregate read
  capacity ``d / read_ns``.  The moment no other tenant has work in
  flight, pacing state resets and admissions return ``now`` unchanged,
  which gives work conservation *and* makes the single-tenant case
  degenerate to the unarbitrated path bit for bit.

Strict-priority mode admits a tenant only once every in-flight command
of a strictly higher-priority tenant has completed.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence

from repro.config import QoSConfig


class TenantMap:
    """Page- and thread-level tenant attribution from a :class:`QoSConfig`."""

    def __init__(self, qos: QoSConfig) -> None:
        self.qos = qos
        self.tenants = len(qos.partitions)
        order = sorted(range(self.tenants),
                       key=lambda i: qos.partitions[i][0])
        self._bases = [qos.partitions[i][0] for i in order]
        self._limits = [qos.partitions[i][0] + qos.partitions[i][1]
                        for i in order]
        self._tenant_at = order
        self._thread_owner = tuple(qos.tenant_of_thread)
        self.weights = tuple(
            float(qos.weights[i]) if i < len(qos.weights) else 1.0
            for i in range(self.tenants)
        )
        self.priorities = tuple(
            int(qos.priorities[i]) if i < len(qos.priorities) else 0
            for i in range(self.tenants)
        )

    # -- attribution -------------------------------------------------------

    def tenant_of_page(self, page: int) -> Optional[int]:
        """Owning tenant of a logical page, or ``None`` if unowned."""
        idx = bisect_right(self._bases, page) - 1
        if idx < 0 or page >= self._limits[idx]:
            return None
        return self._tenant_at[idx]

    def tenant_of_thread(self, tid: int) -> Optional[int]:
        if 0 <= tid < len(self._thread_owner):
            return self._thread_owner[tid]
        return None

    # -- mechanism activation ----------------------------------------------

    @property
    def flash_scheduling(self) -> bool:
        return self.qos.isolation in ("wfq", "priority") and self.tenants > 1

    @property
    def host_scheduling(self) -> bool:
        return (self.qos.isolation in ("wfq", "priority")
                and len(self._thread_owner) > 0)

    @property
    def log_partitioning(self) -> bool:
        return self.qos.isolation == "log-partition" and self.tenants > 1

    @property
    def cache_quota(self) -> bool:
        return self.qos.isolation == "cache-quota" and self.tenants > 1


class FlashPacingArbiter:
    """Per-channel admission pacing for tenant flash reads.

    State per channel and tenant:

    * ``next_ok`` -- earliest admission instant allowed by the pacing
      rate (wfq mode only);
    * ``busy_until`` -- completion horizon of the tenant's last admitted
      command, used both to detect contention and, in priority mode, to
      make lower-priority tenants wait out higher-priority work.
    """

    def __init__(
        self,
        tenant_map: TenantMap,
        channels: int,
        dies_per_channel: int,
        read_ns: float,
    ) -> None:
        self.map = tenant_map
        self._priority = tenant_map.qos.isolation == "priority"
        self._read_ns = float(read_ns)
        self._dies = max(1, dies_per_channel)
        n = tenant_map.tenants
        self._next_ok: List[List[float]] = [
            [0.0] * n for _ in range(channels)
        ]
        self._busy_until: List[List[float]] = [
            [0.0] * n for _ in range(channels)
        ]

    def admit(self, channel: int, tenant: int, now: float) -> float:
        """Earliest instant ``tenant`` may submit a read on ``channel``."""
        busy = self._busy_until[channel]
        others = [u for u in range(len(busy))
                  if u != tenant and busy[u] > now]
        if not others:
            # Lone tenant: full channel, stale pacing state is dropped so
            # this path is exactly the unarbitrated submit.
            next_ok = self._next_ok[channel]
            for u in range(len(next_ok)):
                next_ok[u] = now
            return now
        if self._priority:
            mine = self.map.priorities[tenant]
            gate = now
            for u in others:
                if self.map.priorities[u] > mine:
                    gate = max(gate, busy[u])
            return gate
        weights = self.map.weights
        active_weight = weights[tenant] + sum(weights[u] for u in others)
        pace = self._read_ns * active_weight / (weights[tenant] * self._dies)
        start = max(now, self._next_ok[channel][tenant])
        self._next_ok[channel][tenant] = start + pace
        return start

    def note_completion(self, channel: int, tenant: int, done: float) -> None:
        busy = self._busy_until[channel]
        if done > busy[tenant]:
            busy[tenant] = done


def weighted_pick_key(runtime_ns: float, tid: int,
                      tenant_map: TenantMap) -> tuple:
    """Host-scheduler pick key under QoS (see ``host/scheduler.py``).

    wfq: CFS over weight-scaled virtual runtime.  priority: strict
    tenant priority first, fair runtime within a priority level.
    """
    tenant = tenant_map.tenant_of_thread(tid)
    if tenant is None:
        return (runtime_ns, tid)
    if tenant_map.qos.isolation == "priority":
        return (-tenant_map.priorities[tenant], runtime_ns, tid)
    return (runtime_ns / tenant_map.weights[tenant], tid)


def build_tenant_map(qos: QoSConfig) -> Optional[TenantMap]:
    """A :class:`TenantMap` for an active config, ``None`` when QoS is off."""
    if qos.isolation == "none" or not qos.partitions:
        return None
    return TenantMap(qos)


def partition_capacities(
    total: int, weights: Sequence[float], minimum: int = 1
) -> List[int]:
    """Split ``total`` capacity units across tenants proportionally to
    ``weights`` (largest-remainder rounding, ``minimum`` per tenant)."""
    n = len(weights)
    if n == 0:
        return []
    wsum = sum(weights) or float(n)
    raw = [total * (w / wsum) for w in weights]
    floors = [max(minimum, int(r)) for r in raw]
    spare = total - sum(floors)
    if spare > 0:
        order = sorted(range(n), key=lambda i: raw[i] - int(raw[i]),
                       reverse=True)
        for i in range(spare):
            floors[order[i % n]] += 1
    return floors
