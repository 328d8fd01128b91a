"""Full-system composition: cores + OS + CXL link + SSD device.

:class:`System` wires one simulation run together: it builds the device
personality a :class:`~repro.variants.DesignVariant` asks for, installs
the migration engine and scheduler, preconditions the flash (so GC
triggers, as in §VI-A), replays the per-thread traces on the interval
cores, and collects a :class:`~repro.sim.stats.SimStats`.

The host-side memory path lives here: promoted pages are served from
host DRAM (the H-R/W class of Fig. 16); everything else crosses the CXL
link with its protocol latency and serialisation, matching the paper's
AMAT model of a three-level hierarchy where "access to SSD DRAM will
bypass host DRAM".
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.baselines.astriflash import AstriFlashController
from repro.baselines.tpp import TPPHotnessPolicy
from repro.config import CACHELINE_SIZE, SimConfig
from repro.core.controller import SkyByteController
from repro.core.migration import MigrationEngine, SkyByteHotnessPolicy
from repro.cpu.core import Core
from repro.cpu.dram import HostDRAM
from repro.cxl.link import CXLLink
from repro.host.page_table import Location, PageTable
from repro.host.scheduler import Scheduler
from repro.host.threads import ThreadContext
from repro.obs.timeline import TimelineTracer
from repro.qos import build_tenant_map
from repro.sim.engine import Engine
from repro.sim.stats import HOST_DRAM, EngineStats, SimStats
from repro.ssd.base_controller import BaseCSSDController
from repro.ssd.interface import AccessResult
from repro.variants import DesignVariant
from repro.workloads.trace import TraceRecord

#: Wire sizes: request header, and a data flit (64 B line + header).
REQ_BYTES = 8
DATA_BYTES = CACHELINE_SIZE + 4
NDR_BYTES = 4


class System:
    """One complete simulated machine executing one workload."""

    def __init__(
        self,
        config: SimConfig,
        traces: Sequence[Sequence[TraceRecord]],
        variant: DesignVariant,
        workload_mlp: int = 8,
    ) -> None:
        self.workload_mlp = max(1, workload_mlp)
        self.config = variant.apply(config)
        self.variant = variant
        #: Sim-time timeline recorder, built only when tracing is on.
        self.tracer: Optional[TimelineTracer] = None
        if self.config.trace.enabled:
            self.tracer = TimelineTracer(
                max_events=self.config.trace.max_events
            )
        #: Tracer of the per-request spans :meth:`window_access` emits.
        self._request_tracer = (
            self.tracer if self.config.trace.requests else None
        )
        self.engine = Engine()
        self.stats = SimStats()
        self.link = CXLLink(self.config.cxl, self.stats)
        self.host_dram = HostDRAM(self.config.cpu)
        self.page_table = PageTable()
        self.scheduler = Scheduler(self.config.os.t_policy, seed=self.config.seed)
        # Host-side tenant QoS ("wfq"/"priority" isolation): weighted or
        # priority-aware CFS picking, reconstructed from the config alone
        # so trace replay behaves identically on every backend.
        qos_map = build_tenant_map(self.config.qos)
        if qos_map is not None and qos_map.host_scheduling:
            self.scheduler.set_tenant_qos(qos_map)

        # Precomputed wire timing for :meth:`window_access`: per-message
        # byte counts and serialisation delays for the four message sizes
        # (read/write x down/up).  ``transfer_ns`` is deterministic in the
        # byte count, so hoisting it out of the per-access loop is exact.
        cxl = self.config.cxl
        fo = CXLLink.FLIT_OVERHEAD
        self._protocol_ns = cxl.protocol_ns
        self._wire = {
            False: (
                REQ_BYTES + fo,
                cxl.transfer_ns(REQ_BYTES + fo),
                DATA_BYTES + fo,
                cxl.transfer_ns(DATA_BYTES + fo),
            ),
            True: (
                REQ_BYTES + CACHELINE_SIZE + fo,
                cxl.transfer_ns(REQ_BYTES + CACHELINE_SIZE + fo),
                NDR_BYTES + fo,
                cxl.transfer_ns(NDR_BYTES + fo),
            ),
        }

        self.controller = self._build_controller()
        if self.tracer is not None and self.controller is not None:
            flash = getattr(self.controller, "flash", None)
            if flash is not None:
                flash.tracer = self.tracer
        self.migration: Optional[MigrationEngine] = None
        if (
            variant.promotion
            and not variant.astriflash
            and not variant.dram_only
        ):
            policy = self._build_hotness_policy()
            self.migration = MigrationEngine(
                self.config,
                self.controller,
                self.page_table,
                self.link,
                self.engine,
                self.stats,
                policy=policy,
            )
            self.controller.on_page_access = self.migration.on_page_access
            self.migration.on_tlb_shootdown = self._broadcast_shootdown
            if self.tracer is not None:
                self.migration.tracer = self.tracer

        self.threads = [
            ThreadContext(tid, trace) for tid, trace in enumerate(traces)
        ]
        self.cores: List[Core] = [
            Core(cid, self.config, self.engine, self.scheduler, self)
            for cid in range(self.config.cpu.cores)
        ]

        self._threads_done = 0
        self._total_instructions = sum(
            sum(r[0] for r in t) + len(t) for t in traces
        )
        self._finished = False
        self._traces = traces

    # -- construction helpers ----------------------------------------------------

    def _build_controller(self):
        if self.variant.dram_only:
            return None
        if self.variant.astriflash:
            return AstriFlashController(
                self.config, self.engine, self.stats, self.link
            )
        if self.variant.write_log:
            return SkyByteController(
                self.config,
                self.engine,
                self.stats,
                ctx_switch_enabled=self.variant.ctx_switch,
            )
        return BaseCSSDController(
            self.config,
            self.engine,
            self.stats,
            ctx_switch_enabled=self.variant.ctx_switch,
        )

    def _build_hotness_policy(self):
        if self.config.skybyte.migration_mechanism == "tpp":
            return TPPHotnessPolicy(seed=self.config.seed)
        return SkyByteHotnessPolicy(self.config.ssd.promotion_threshold)

    def _broadcast_shootdown(self, cost_ns: float) -> None:
        for core in self.cores:
            core.add_tlb_shootdown(cost_ns)

    # -- properties the cores consult ------------------------------------------------

    @property
    def switch_cost_ns(self) -> float:
        """Kernel switch for SkyByte designs, user-level for AstriFlash."""
        if self.variant.astriflash:
            return self.config.os.user_level_switch_ns
        return self.config.os.context_switch_ns

    # -- the host memory path -----------------------------------------------------------

    def dram_window_access(
        self, ops: Sequence[TraceRecord], now: float, tid: int = -1
    ) -> List[float]:
        """Batched DRAM-only window: the device-latency inner loop.

        ``tid`` identifies the issuing thread so multi-tenant subclasses
        can attribute the window to a tenant; the base loop ignores it.

        Serves ``len(ops)`` host-DRAM accesses issued at the same
        ``now`` in one float loop, with no request or result object per
        access.  The other four AMAT components are never added to: they
        would be ``+= 0.0``, and ``x + 0.0 == x`` bitwise for every
        non-negative float.
        """
        stats = self.stats
        dram = self.host_dram
        latency_ns = dram._latency_ns
        inc = CACHELINE_SIZE / dram._bytes_per_ns
        free = dram._free_at
        enabled = stats.enabled
        counts = stats.request_counts
        completes: List[float] = []
        append = completes.append
        for _gap, is_write, _addr in ops:
            start = free if free > now else now
            free = start + inc
            complete = start + latency_ns
            if enabled:
                counts[HOST_DRAM] += 1
                stats.amat_host_dram_ns += complete - now
                stats.amat_accesses += 1
                if is_write:
                    stats.host_lines_written += 1
                else:
                    stats.host_lines_read += 1
            append(complete)
        dram._free_at = free
        dram.accesses += len(completes)
        return completes

    #: Per-access tenant attribution hook of :meth:`window_access`:
    #: ``(tid, request_class, latency_ns, breakdown)``.  Multi-tenant
    #: subclasses override it; ``None`` skips the call.
    _mirror_access = None

    def window_access(
        self,
        ops: Sequence[TraceRecord],
        now: float,
        core_id: int,
        tid: int,
        just_resumed: bool,
    ) -> Tuple[List[float], Optional[AccessResult]]:
        """Serve a whole ROB window of accesses issued at ``now`` by
        thread ``tid`` on core ``core_id``: every variant but DRAM-Only
        (:meth:`dram_window_access`).

        Promoted pages are served inline from host DRAM (one page-table
        lookup, no request or result object).  CXL accesses run the
        arithmetic of ``CXLLink.send_downstream`` / ``send_upstream``
        inline (same operand order, hoisted constant serialisation
        delays) around the controller's decoded-address entry.  AMAT
        components an access does not touch are never added to: they
        would be ``+= 0.0``, which is exact because those sums never hold
        ``-0.0``.  AstriFlash-CXL, whose controller owns the link, takes
        :meth:`_host_cache_window`.

        Returns the completion times of the ops that retire and the
        :class:`AccessResult` of the op whose ``SkyByte-Delay`` hint the
        core acts on, or ``None`` when the whole window retires; ops
        after that one are never issued.  ``scheduler.runnable()`` is
        consulted only when a hint arrives, and a just-resumed thread
        ignores hints estimated below four switch thresholds (the replay
        is almost ready).
        """
        if self.variant.astriflash:
            return self._host_cache_window(ops, now, tid, just_resumed)
        stats = self.stats
        enabled = stats.enabled
        counts = stats.request_counts
        entries = self.page_table._entries
        dram = self.host_dram
        dram_latency = dram._latency_ns
        dram_inc = CACHELINE_SIZE / dram._bytes_per_ns
        link = self.link
        protocol_ns = self._protocol_ns
        wire = self._wire
        ndr_ser = wire[True][3]  # a write's reply is itself an NDR
        access_line = self.controller.access_line
        mirror = self._mirror_access if enabled else None
        tracer = self._request_tracer
        guard_ns = 4 * self.config.os.cs_threshold_ns
        completes: List[float] = []
        append = completes.append
        for _gap, is_write, address in ops:
            page = address >> 12
            line = (address >> 6) & 0x3F
            entry = entries.get(page)
            if entry is not None and entry.location == Location.HOST:
                # H-R/W: the page was promoted; served by host DRAM.
                entry.last_access_ns = now
                if is_write:
                    entry.dirty_mask |= 1 << line
                free = dram._free_at
                start = free if free > now else now
                dram._free_at = start + dram_inc
                dram.accesses += 1
                complete = start + dram_latency
                if enabled:
                    counts[HOST_DRAM] += 1
                    stats.amat_host_dram_ns += complete - now
                    stats.amat_accesses += 1
                    stats.promoted_hits += 1
                    if is_write:
                        stats.host_lines_written += 1
                if mirror is not None:
                    latency = complete - now
                    mirror(tid, HOST_DRAM, latency, {"host_dram": latency})
                append(complete)
                continue

            # CXL: downstream request, device access, upstream response.
            down_bytes, down_ser, up_bytes, up_ser = wire[is_write]
            free = link._down_free_at
            start = free if free > now else now
            new_free = start + down_ser
            link._down_free_at = new_free
            arrive_dev = new_free + protocol_ns
            if enabled:
                stats.cxl_bytes += down_bytes
            result = access_line(page, line, is_write, arrive_dev)
            device_done = result.complete_ns
            complete = device_done + up_ser + protocol_ns
            protocol = (arrive_dev - now) + (complete - device_done)
            if enabled:
                stats.cxl_bytes += up_bytes
                stats.amat_protocol_ns += protocol
                if not is_write:
                    stats.host_lines_read += 1
            if tracer is not None:
                self._trace_request(core_id, tid, is_write, now, arrive_dev,
                                    result.request_class, device_done,
                                    complete)
            if mirror is not None or result.delay_hint:
                result.breakdown["protocol"] = protocol
                result.complete_ns = complete
            if mirror is not None:
                mirror(tid, result.request_class, complete - now,
                       result.breakdown)
            if result.delay_hint:
                # The SkyByte-Delay NDR races ahead of the data.
                decision_ns = result.breakdown.get("indexing", 0.0)
                if enabled:
                    stats.cxl_bytes += NDR_BYTES + CXLLink.FLIT_OVERHEAD
                result.hint_arrival_ns = (
                    arrive_dev + decision_ns + ndr_ser + protocol_ns
                )
                if self.scheduler.runnable() > 0 and not (
                    just_resumed and result.est_delay_ns < guard_ns
                ):
                    return completes, result
            append(complete)
        return completes, None

    def _host_cache_window(
        self,
        ops: Sequence[TraceRecord],
        now: float,
        tid: int,
        just_resumed: bool,
    ) -> Tuple[List[float], Optional[AccessResult]]:
        """AstriFlash-CXL's window: its controller owns the host-DRAM page
        cache and the link, so each op is one ``access_line`` at ``now``
        and every host-cache miss carries a (user-level) switch hint."""
        access_line = self.controller.access_line
        mirror = self._mirror_access if self.stats.enabled else None
        guard_ns = 4 * self.config.os.cs_threshold_ns
        completes: List[float] = []
        for _gap, is_write, address in ops:
            result = access_line(address >> 12, (address >> 6) & 0x3F,
                                 is_write, now)
            if mirror is not None:
                mirror(tid, result.request_class, result.complete_ns - now,
                       result.breakdown)
            if (
                result.delay_hint
                and self.scheduler.runnable() > 0
                and not (just_resumed and result.est_delay_ns < guard_ns)
            ):
                return completes, result
            completes.append(result.complete_ns)
        return completes, None

    def _trace_request(
        self,
        core_id: int,
        tid: int,
        is_write: bool,
        now: float,
        arrive_dev: float,
        request_class: str,
        device_done: float,
        arrive_host: float,
    ) -> None:
        """Per-request spans: whole request plus its link/device phases,
        on the issuing core's lane."""
        tracer = self._request_tracer
        thread = f"core {core_id}"
        name = "mem.write" if is_write else "mem.read"
        tracer.complete(
            name, "requests", thread, int(now), int(arrive_host),
            args={"class": request_class, "thread": tid},
        )
        tracer.complete(
            "cxl.down", "requests", thread, int(now), int(arrive_dev))
        tracer.complete(
            "device", "requests", thread, int(arrive_dev), int(device_done),
            args={"class": request_class},
        )
        tracer.complete(
            "cxl.up", "requests", thread, int(device_done), int(arrive_host))

    # -- progress callbacks --------------------------------------------------------------

    def on_thread_done(self, thread: ThreadContext) -> None:
        self._threads_done += 1
        if self._threads_done >= len(self.threads):
            self.stats.end_ns = self.engine.now
            self._finished = True

    # -- running -------------------------------------------------------------------------

    def prepare(self) -> None:
        """Precondition the SSD (§VI-A: "We precondition the SSD to ensure
        garbage collections will be triggered"), warm every cache with the
        traces, and stage the threads."""
        if self.controller is not None and hasattr(self.controller, "ftl"):
            self.controller.ftl.precondition(self.config.ssd.logical_pages)
        self._warm_caches()
        for thread in self.threads:
            self.scheduler.enqueue(thread)

    def _warm_caches(self) -> None:
        """Metadata-only replay of the traces to reach steady state before
        timing starts (§VI-A's warmup): SSD DRAM structures fill, the LRU
        orders settle, and hot pages get promoted."""
        if self.config.dram_only or self.controller is None:
            return
        fraction = min(1.0, max(0.0, self.config.warmup_fraction))
        if fraction == 0.0:
            return
        self.stats.enabled = False
        cursors = [
            trace[: int(len(trace) * fraction)] for trace in self._traces
        ]
        # Round-robin across threads to approximate concurrent interleaving.
        indices = [0] * len(cursors)
        live = set(range(len(cursors)))
        while live:
            for t in list(live):
                trace = cursors[t]
                i = indices[t]
                if i >= len(trace):
                    live.discard(t)
                    continue
                _gap, is_write, address = trace[i]
                indices[t] = i + 1
                page = address >> 12
                line = (address >> 6) & 0x3F
                if self.migration is not None:
                    self.migration.warm_access(page, is_write)
                if self.page_table.is_promoted(page):
                    continue
                self.controller.warm_access(page, line, is_write)
        self.stats.enabled = True

    def run(self, max_ns: Optional[float] = None) -> SimStats:
        """Execute the full simulation; returns the populated stats."""
        self.prepare()
        self.stats.start_ns = self.engine.now
        for core in self.cores:
            core.start()
        self.engine.run(until=max_ns)
        if self.stats.end_ns < self.stats.start_ns:
            self.stats.end_ns = self.engine.now
        if self.controller is not None:
            self.controller.drain(self.engine.now)
            self.engine.run(until=max_ns)
        if self.tracer is not None:
            # Engine counters ride along only on tracing runs so ordinary
            # results keep their exact pre-observability serialisation.
            engine_stats = EngineStats()
            engine_stats.events_processed = self.engine.processed
            engine_stats.past_clamps = self.engine.past_clamps
            self.stats.engine = engine_stats
        return self.stats

    def close(self) -> None:
        """Break the reference cycles of a finished run, so the system is
        freed by reference counting as soon as the caller drops it.

        Cores and the scheduler point at each other and at the system,
        and the migration and emergency-GC hooks are bound methods of
        objects their owners hold.  Left to the cyclic collector, dead
        systems (each with its own FTL, caches and page table) pile up
        between full collections and inflate a sweep's peak memory.  A
        closed system cannot run again; its stats stay readable.
        """
        self.cores.clear()
        self.scheduler._waiting_cores.clear()
        if self.migration is not None:
            self.controller.on_page_access = None
            self.migration.on_tlb_shootdown = None
        ftl = getattr(self.controller, "ftl", None)
        if ftl is not None:
            ftl.on_out_of_space = None


def run_system(
    config: SimConfig,
    traces: Sequence[Sequence[TraceRecord]],
    variant: DesignVariant,
    max_ns: Optional[float] = None,
) -> SimStats:
    """Convenience one-shot runner."""
    system = System(config, traces, variant)
    stats = system.run(max_ns=max_ns)
    system.close()
    return stats
