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
from repro.core.data_cache import SkyByteDataCache
from repro.core.dram_manager import SkyByteDRAMManager
from repro.core.trigger import ContextSwitchTrigger
from repro.core.write_log import WriteLog
from repro.qos import FlashPacingArbiter, build_tenant_map
from repro.sim.engine import Engine
from repro.sim.stats import SimStats, SSD_READ_HIT, SSD_READ_MISS, SSD_WRITE
from repro.ssd.base_cache import CacheEntry
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
            config.os.cs_threshold_ns, enabled=ctx_switch_enabled
        )
        # Hoisted per-access constants (config is settled by now).
        self._dram_ns = self._ssd.dram_access_ns
        self._miss_index_ns = self.dram.miss_index_ns
        self._r1_index_ns = self._ssd.cache_index_ns
        self._r2_index_ns = self._ssd.log_index_ns
        self._write_log = self.dram.write_log
        self._prefetch_depth = self._ssd.prefetch_depth
        self._pages_per_channel = self.flash.model.pages_per_channel
        self._gc_active = self.gc.active
        # The read path looks R1 up in (and fills) the data cache's sets
        # itself; the per-tenant quota cache is asked through the DRAM
        # manager.  Likewise it reads the logged-line masks of a single
        # write log from its two buffers' first-level index tables (each
        # cleared in place on reset); per-tenant log shares route.
        cache = self.dram.data_cache
        if isinstance(cache, SkyByteDataCache):
            self._r1_cache = cache._cache
            self._r1_sets = cache._cache._sets
            self._r1_num_sets = cache._cache.num_sets
        else:
            self._r1_sets = None
        log = self._write_log
        if isinstance(log, WriteLog):
            self._log_tables = tuple(b.index._first for b in log.buffers)
        else:
            self._log_tables = None
        # Controller MSHRs: lpa -> completion time of the in-flight fetch.
        self._inflight: Dict[int, float] = {}
        #: Migration hooks (see MigrationEngine.install): the hotness
        #: policy's ``record_access(page, is_write, now)``, true when
        #: promotion candidates are pending, and the engine's
        #: ``promote_candidates(now)``.
        self.on_page_access = None
        self.on_promotion_candidates = None

    # -- public API ---------------------------------------------------------------

    def access_line(
        self, lpa: int, line: int, is_write: bool, now: float,
        float_hits: bool = False,
    ):
        """Serve one 64 B access to line ``line`` of page ``lpa``
        arriving at the device at ``now``: the one device entry point.

        With ``float_hits`` an access that cannot carry a hint (an R1/R2
        read hit, any write) returns its completion time as a bare
        float; every other access returns an :class:`AccessResult`.  The
        stats are the same either way.
        """
        record = self.on_page_access
        if record is not None and record(lpa, is_write, now):
            self.on_promotion_candidates(now)
        if is_write:
            return self._write(lpa, line, now, float_hits)
        return self._read(lpa, line, now, float_hits)

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

    def _read(self, lpa: int, line: int, now: float, float_hits: bool):
        """A read, in one body: an MSHR-coalesced read of a page whose
        fetch is in flight, an R1/R2 hit, or an R3 miss with Algorithm
        1's hint, the flash fetch and the sequential prefetch."""
        stats = self._stats
        sets = self._r1_sets
        inflight = self._inflight
        inflight_ready = inflight.get(lpa)
        if inflight_ready is not None and inflight_ready > now:
            # Coalesce on the controller MSHR: the page is on its way.
            # The read waits out the remaining fetch, and the hint
            # compares that wait itself against the threshold.
            indexing = self._miss_index_ns
            dram_ns = self._dram_ns
            wait = inflight_ready - now
            flash = max(0.0, wait - indexing)
            if stats.enabled:
                stats.request_counts[SSD_READ_MISS] += 1
                stats.amat_indexing_ns += indexing
                stats.amat_ssd_dram_ns += dram_ns
                stats.amat_flash_ns += flash
                stats.amat_accesses += 1
            if sets is None:
                entry = self.dram.data_cache.peek(lpa)
            else:
                entry = sets[lpa % self._r1_num_sets].get(lpa)
            if entry is not None:
                entry.touch_mask |= 1 << line
            trigger = self.trigger
            return AccessResult(
                complete_ns=inflight_ready + dram_ns,
                request_class=SSD_READ_MISS,
                delay_hint=trigger.enabled and wait > trigger.threshold_ns,
                est_delay_ns=wait,
                breakdown={"indexing": indexing, "flash": flash,
                           "ssd_dram": dram_ns},
            )

        # R1 then R2, each looked up once; only an R3 miss goes on.  The
        # R2 test reads the page's logged-line mask, which an R3 fill
        # merges in.
        log_tables = self._log_tables
        write_log = self._write_log
        if sets is None:
            hit = self.dram.lookup(lpa, line)
            indexing = None if hit is None else hit[1]
            logged = None
        else:
            cache_set = sets[lpa % self._r1_num_sets]
            entry = cache_set.get(lpa)
            if entry is not None:
                # R1: refresh LRU and mark the line touched.
                cache_set.move_to_end(lpa)
                entry.touch_mask |= 1 << line
                if stats.enabled:
                    stats.cache_hits += 1
                indexing = self._r1_index_ns
            else:
                if log_tables is None:
                    logged = write_log.line_mask(lpa)
                else:
                    first, second = log_tables
                    table = first.get(lpa)
                    logged = 0 if table is None else table.mask
                    table = second.get(lpa)
                    if table is not None:
                        logged |= table.mask
                indexing = self._r2_index_ns if logged >> line & 1 else None
        dram_ns = self._dram_ns
        if indexing is not None:
            # Hit: the common case, with the stats mutators inlined
            # (skipping the ``+= 0.0`` component adds is exact).
            if stats.enabled:
                stats.request_counts[SSD_READ_HIT] += 1
                stats.amat_indexing_ns += indexing
                stats.amat_ssd_dram_ns += dram_ns
                stats.amat_accesses += 1
            if float_hits:
                return now + indexing + dram_ns
            return AccessResult(
                complete_ns=now + indexing + dram_ns,
                request_class=SSD_READ_HIT,
                breakdown={"indexing": indexing, "ssd_dram": dram_ns},
            )

        # R3: both lookups were needed to see the miss, so it pays the
        # slower one; the fetch issues once they are done.
        indexing = self._miss_index_ns
        issue = now + indexing
        ftl = self.ftl
        flash_array = self.flash
        ppa = ftl.translate(lpa)
        # Algorithm 1 decides the hint *before* the fetch mutates the
        # channel queue (the estimate is for the state the request
        # sees): a GC campaign on the channel triggers at once ("as GCs
        # typically last for milliseconds", §III-A), otherwise the
        # channel's queue estimate is compared against the threshold.
        # A never-written page is zero-filled: no flash, no hint.
        trigger = self.trigger
        if ppa is not None and trigger.enabled:
            channel = ppa // self._pages_per_channel
            est_ns = flash_array.channels[channel].estimate_read_ns()
            hint = self._gc_active[channel] or est_ns > trigger.threshold_ns
        else:
            hint, est_ns = False, 0.0
        qos = self.tenant_map if self._flash_qos else None
        if stats.enabled:
            stats.cache_misses += 1
        if ppa is None:
            ready = issue
        else:
            tenant = None if qos is None else qos.tenant_of_page(lpa)
            ready = flash_array.read_page(ppa, issue, tenant=tenant)
        # Install the page with the newer logged lines merged in.
        cache = self.dram.data_cache
        if sets is None:
            cache.fill(lpa, line, write_log.line_mask(lpa))
        else:
            # ``SetAssociativePageCache.insert`` of an absent page (nothing
            # since the R1 miss touched the cache), with the eviction
            # accounting of ``SkyByteDataCache.fill``.
            r1_cache = self._r1_cache
            ways = r1_cache.ways
            victim = None
            if len(cache_set) >= ways:
                _, victim = cache_set.popitem(last=False)
                r1_cache._size -= 1
            cache_set[lpa] = CacheEntry(lpa, 1 << line, logged)
            r1_cache._size += 1
            if victim is not None and stats.enabled:
                stats.cache_evictions += 1
                locality = stats.read_locality
                locality._counts[victim.touch_mask.bit_count()] += 1
                locality._total += 1
        flash = max(0.0, ready - now - indexing)
        if stats.enabled:
            stats.request_counts[SSD_READ_MISS] += 1
            stats.amat_indexing_ns += indexing
            stats.amat_ssd_dram_ns += dram_ns
            stats.amat_flash_ns += flash
            stats.amat_accesses += 1
        inflight[lpa] = ready

        # Sequential next-page prefetch into the data cache.  SkyByte
        # keeps the baseline's published optimisations (§VI-A's
        # Base-CSSD includes "prefetching from flash to SSD DRAM"); only
        # the DRAM organisation changes.
        for nxt in range(lpa + 1, lpa + self._prefetch_depth + 1):
            pending = inflight.get(nxt)
            if pending is not None and pending > issue:
                continue
            if sets is None:
                if cache.peek(nxt) is not None:
                    continue
            else:
                nxt_set = sets[nxt % self._r1_num_sets]
                if nxt in nxt_set:
                    continue
            nxt_ppa = ftl.translate(nxt)
            if nxt_ppa is None:
                continue
            tenant = None if qos is None else qos.tenant_of_page(nxt)
            nxt_ready = flash_array.read_page(nxt_ppa, issue, tenant=tenant)
            if sets is None:
                cache.fill(nxt, None, write_log.line_mask(nxt))
            else:
                if log_tables is None:
                    merged = write_log.line_mask(nxt)
                else:
                    table = first.get(nxt)
                    merged = 0 if table is None else table.mask
                    table = second.get(nxt)
                    if table is not None:
                        merged |= table.mask
                victim = None
                if len(nxt_set) >= ways:
                    _, victim = nxt_set.popitem(last=False)
                    r1_cache._size -= 1
                nxt_set[nxt] = CacheEntry(nxt, 0, merged)
                r1_cache._size += 1
                if victim is not None and stats.enabled:
                    stats.cache_evictions += 1
                    locality = stats.read_locality
                    locality._counts[victim.touch_mask.bit_count()] += 1
                    locality._total += 1
            if stats.enabled:
                stats.prefetch_issued += 1
            inflight[nxt] = nxt_ready
        return AccessResult(
            complete_ns=ready + dram_ns,
            request_class=SSD_READ_MISS,
            delay_hint=hint,
            est_delay_ns=est_ns,
            breakdown={"indexing": indexing, "flash": flash, "ssd_dram": dram_ns},
        )

    # -- write path --------------------------------------------------------------------

    def _write(self, lpa: int, line: int, now: float, float_hits: bool):
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
        if float_hits:
            return outcome.ready_ns + dram_ns
        return AccessResult(
            complete_ns=outcome.ready_ns + dram_ns,
            request_class=SSD_WRITE,
            breakdown={
                "indexing": outcome.indexing_ns,
                "ssd_dram": dram_ns,
                "flash": outcome.stalled_ns,
            },
        )
