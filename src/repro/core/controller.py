"""SkyByte SSD controller.

The device personality implementing the paper's design: the CXL-aware
DRAM manager (write log + data cache) in front of a page-level FTL with
garbage collection, plus the Algorithm 1 trigger that answers long reads
with a ``SkyByte-Delay`` NDR.  Writes are always absorbed by the write log
("As writes are buffered in the write log, they do not need to trigger
context switch", §III-A).

Controller MSHRs coalesce concurrent reads to a page whose flash fetch is
already in flight, mirroring the baseline controller.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import SimConfig
from repro.core.dram_manager import SkyByteDRAMManager
from repro.core.trigger import ContextSwitchTrigger
from repro.cxl.protocol import MemRequest
from repro.qos import FlashPacingArbiter, build_tenant_map
from repro.sim.engine import Engine
from repro.sim.stats import SimStats, SSD_READ_HIT, SSD_READ_MISS, SSD_WRITE
from repro.ssd.factory import arbiter_slots, build_flash_subsystem
from repro.ssd.interface import AccessResult


class SkyByteController:
    """The full SkyByte device (write log + data cache + trigger)."""

    def __init__(
        self,
        config: SimConfig,
        engine: Engine,
        stats: SimStats,
        ctx_switch_enabled: Optional[bool] = None,
    ) -> None:
        self._config = config
        self._ssd = config.ssd
        self._stats = stats
        self.ftl, self.flash, self.gc = build_flash_subsystem(config, engine, stats)
        # Tenant QoS (docs/QOS.md): attribution map from the config, the
        # admission arbiter on the flash array for "wfq"/"priority".
        self.tenant_map = build_tenant_map(config.qos)
        self._flash_qos = (
            self.tenant_map is not None and self.tenant_map.flash_scheduling
        )
        if self._flash_qos:
            self.flash.arbiter = FlashPacingArbiter(
                self.tenant_map,
                self._ssd.geometry.channels,
                arbiter_slots(config),
                self._ssd.timing.read_ns,
            )
        self.dram = SkyByteDRAMManager(
            self._ssd, self.ftl, self.flash, self.gc, engine, stats,
            qos=self.tenant_map,
        )
        if ctx_switch_enabled is None:
            ctx_switch_enabled = config.skybyte.device_triggered_ctx_swt
        self.trigger = ContextSwitchTrigger(
            config.os.cs_threshold_ns, self.flash, self.gc, enabled=ctx_switch_enabled
        )
        # Hoisted per-access constants (config is settled by now).
        self._dram_ns = self._ssd.dram_access_ns
        self._miss_index_ns = self.dram.miss_index_ns
        # Controller MSHRs: lpa -> completion time of the in-flight fetch.
        self._inflight: Dict[int, float] = {}
        #: Hook for the migration engine (page, is_write, now).
        self.on_page_access = None

    # -- public API ---------------------------------------------------------------

    def access(self, request: MemRequest, now: float) -> AccessResult:
        return self.access_line(
            request.page, request.line_offset, request.is_write, now
        )

    def access_line(
        self, lpa: int, line: int, is_write: bool, now: float
    ) -> AccessResult:
        """Direct entry taking the decoded address: the host window loop
        calls this without materialising a :class:`MemRequest`."""
        if self.on_page_access is not None:
            self.on_page_access(lpa, is_write, now)
        if is_write:
            return self._write(lpa, line, now)
        return self._read(lpa, line, now)

    def drain(self, now: float) -> float:
        """Flush both log buffers so end-of-run flash traffic is complete."""
        return self.dram.flush_all(now)

    def warm_access(self, page: int, line: int, is_write: bool) -> None:
        """Metadata-only warmup replay of one access (§VI-A)."""
        if is_write:
            self.dram.warm_write(page, line)
        else:
            self.dram.warm_read(page, line)

    def invalidate_page(self, lpa: int) -> int:
        """Promotion completion: drop the page from SSD DRAM structures.

        Returns the dirty-versus-flash bitmap that was dropped (logged
        lines plus dirty cache lines) so the host copy inherits it.
        """
        dirty = self.dram.write_log.line_mask(lpa)
        entry = self.dram.data_cache.peek(lpa)
        if entry is not None:
            dirty |= entry.dirty_mask
        self.dram.invalidate_page(lpa)
        self._inflight.pop(lpa, None)
        return dirty

    def demote_page(self, lpa: int, dirty_mask: int, now: float) -> None:
        """Accept a demoted page: dirty lines re-enter via the write log
        (they are ordinary cacheline writes arriving over CXL)."""
        line = 0
        mask = dirty_mask
        while mask:
            if mask & 1:
                self.dram.write(lpa, line, now)
            mask >>= 1
            line += 1

    def contains_page(self, lpa: int) -> bool:
        return self.dram.contains_page(lpa)

    # -- read path ------------------------------------------------------------------

    def _read(self, lpa: int, line: int, now: float) -> AccessResult:
        inflight_ready = self._inflight.get(lpa)
        if inflight_ready is not None and inflight_ready > now:
            # Coalesce on the controller MSHR: the page is on its way.
            return self._read_coalesced(lpa, line, now, inflight_ready)

        # R1 then R2, each looked up once; only an R3 miss goes on.
        hit = self.dram.lookup(lpa, line)
        if hit is None:
            return self._read_miss(lpa, line, now)
        indexing = hit[1]
        # Hit: the common case, with the stats mutators inlined
        # (skipping the ``+= 0.0`` component adds is exact).
        stats = self._stats
        dram_ns = self._dram_ns
        if stats.enabled:
            stats.request_counts[SSD_READ_HIT] += 1
            stats.amat_indexing_ns += indexing
            stats.amat_ssd_dram_ns += dram_ns
            stats.amat_accesses += 1
        return AccessResult(
            complete_ns=now + indexing + dram_ns,
            request_class=SSD_READ_HIT,
            breakdown={"indexing": indexing, "ssd_dram": dram_ns},
        )

    def _read_miss(self, lpa: int, line: int, now: float) -> AccessResult:
        """R3: Algorithm 1's hint, then the flash fetch."""
        indexing = self._miss_index_ns
        ppa = self.ftl.translate(lpa)
        # Decide the context-switch hint *before* the fetch mutates the
        # channel queue (the estimate is for the state the request sees).
        # A never-written page is zero-filled: no flash, no hint.
        if ppa is not None and self.trigger.enabled:
            decision = self.trigger.should_context_switch(ppa)
            hint, est_ns = decision.trigger, decision.estimated_ns
        else:
            hint, est_ns = False, 0.0
        tenant = (
            self.tenant_map.tenant_of_page(lpa) if self._flash_qos else None
        )
        ready = self.dram.fetch(lpa, line, ppa, now + indexing, tenant)
        flash = max(0.0, ready - now - indexing)
        stats = self._stats
        dram_ns = self._dram_ns
        if stats.enabled:
            stats.request_counts[SSD_READ_MISS] += 1
            stats.amat_indexing_ns += indexing
            stats.amat_ssd_dram_ns += dram_ns
            stats.amat_flash_ns += flash
            stats.amat_accesses += 1
        self._inflight[lpa] = ready
        self._maybe_prefetch(lpa, now + indexing)
        return AccessResult(
            complete_ns=ready + dram_ns,
            request_class=SSD_READ_MISS,
            delay_hint=hint,
            est_delay_ns=est_ns,
            breakdown={"indexing": indexing, "flash": flash, "ssd_dram": dram_ns},
        )

    # -- write path --------------------------------------------------------------------

    def _write(self, lpa: int, line: int, now: float) -> AccessResult:
        stats = self._stats
        if stats.enabled:
            stats.host_lines_written += 1
            stats.request_counts[SSD_WRITE] += 1
        outcome = self.dram.write(lpa, line, now)
        dram_ns = self._dram_ns
        if stats.enabled:
            stats.amat_indexing_ns += outcome.indexing_ns
            stats.amat_ssd_dram_ns += dram_ns
            stats.amat_flash_ns += outcome.stalled_ns
            stats.amat_accesses += 1
        return AccessResult(
            complete_ns=outcome.ready_ns + dram_ns,
            request_class=SSD_WRITE,
            breakdown={
                "indexing": outcome.indexing_ns,
                "ssd_dram": dram_ns,
                "flash": outcome.stalled_ns,
            },
        )

    # -- internals ----------------------------------------------------------------------

    def _maybe_prefetch(self, lpa: int, now: float) -> None:
        """Sequential next-page prefetch into the data cache.  SkyByte
        keeps the baseline's published optimisations (§VI-A's Base-CSSD
        includes "prefetching from flash to SSD DRAM"); only the DRAM
        organisation changes."""
        cache = self.dram.data_cache
        for nxt in range(lpa + 1, lpa + self._ssd.prefetch_depth + 1):
            inflight = self._inflight.get(nxt)
            if inflight is not None and inflight > now:
                continue
            if cache.peek(nxt) is not None:
                continue
            ppa = self.ftl.translate(nxt)
            if ppa is None:
                continue
            tenant = (
                self.tenant_map.tenant_of_page(nxt) if self._flash_qos else None
            )
            ready = self.flash.read_page(ppa, now, tenant=tenant)
            cache.fill(nxt, None, self.dram.write_log.line_mask(nxt))
            if self._stats.enabled:
                self._stats.prefetch_issued += 1
            self._inflight[nxt] = ready

    def _read_coalesced(
        self, lpa: int, line: int, now: float, ready: float
    ) -> AccessResult:
        """A read of a page whose flash fetch is in flight: it waits out
        the remaining fetch, and the hint compares that wait itself
        against the threshold."""
        indexing = self._miss_index_ns
        dram_ns = self._dram_ns
        wait = ready - now
        flash = max(0.0, wait - indexing)
        stats = self._stats
        if stats.enabled:
            stats.request_counts[SSD_READ_MISS] += 1
            stats.amat_indexing_ns += indexing
            stats.amat_ssd_dram_ns += dram_ns
            stats.amat_flash_ns += flash
            stats.amat_accesses += 1
        entry = self.dram.data_cache.peek(lpa)
        if entry is not None:
            entry.touch_mask |= 1 << line
        trigger = self.trigger
        return AccessResult(
            complete_ns=ready + dram_ns,
            request_class=SSD_READ_MISS,
            delay_hint=trigger.enabled and wait > trigger.threshold_ns,
            est_delay_ns=wait,
            breakdown={"indexing": indexing, "flash": flash, "ssd_dram": dram_ns},
        )
