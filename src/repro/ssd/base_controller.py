"""Base-CSSD: the state-of-the-art baseline CXL-SSD controller.

Models the device the paper compares against (§VI-A): a page-granular SSD
DRAM cache with LRU replacement, write-allocate fills, sequential
next-page prefetching, and controller-side MSHRs that coalesce concurrent
accesses to an in-flight page fetch.  The access-granularity mismatch is
inherent here: a single dirty cacheline forces a whole-page writeback, and
a cacheline write to a non-resident page must first fetch the page from
flash (read-modify-write), which is precisely the amplification SkyByte's
write log removes.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.config import SimConfig
from repro.core.trigger import ContextSwitchTrigger
from repro.qos import FlashPacingArbiter, build_tenant_map
from repro.sim.engine import Engine
from repro.sim.stats import SimStats, SSD_READ_HIT, SSD_READ_MISS, SSD_WRITE
from repro.ssd.base_cache import CacheEntry, SetAssociativePageCache
from repro.ssd.factory import arbiter_slots, build_flash_subsystem
from repro.ssd.interface import AccessResult


class BaseCSSDController:
    """Baseline CXL-SSD controller (Base-CSSD in the paper's figures)."""

    def __init__(
        self,
        config: SimConfig,
        engine: Engine,
        stats: SimStats,
        ctx_switch_enabled: bool = False,
    ) -> None:
        self._config = config
        self._ssd = config.ssd
        self._stats = stats
        self.ftl, self.flash, self.gc = build_flash_subsystem(config, engine, stats)
        # Tenant QoS: the baseline supports the flash admission arbiter
        # ("wfq"/"priority"), so a QoS trace replays with isolation active
        # under any device personality (docs/QOS.md).
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
        # The whole SSD DRAM is one page cache in the baseline.
        cache_pages = max(1, self._ssd.dram_bytes // self._ssd.geometry.page_size)
        self.cache = SetAssociativePageCache(cache_pages, self._ssd.cache_ways)
        self.trigger = ContextSwitchTrigger(
            config.os.cs_threshold_ns, enabled=ctx_switch_enabled
        )
        # Hoisted per-access constants (config is settled by now).
        self._index_ns = self._ssd.cache_index_ns
        self._dram_ns = self._ssd.dram_access_ns
        self._sets = self.cache._sets
        self._num_sets = self.cache.num_sets
        self._prefetch_depth = self._ssd.prefetch_depth
        self._pages_per_channel = self.flash.model.pages_per_channel
        self._gc_active = self.gc.active
        # Periodic persistence scans at most every quarter interval.
        interval = self._ssd.dirty_flush_interval_ns
        self._flush_scan_ns = interval / 4 if interval > 0 else math.inf
        # Controller MSHRs: lpa -> time its in-flight fetch completes.
        self._inflight: Dict[int, float] = {}
        #: Migration hooks (see MigrationEngine.install): the hotness
        #: policy's ``record_access(page, is_write, now)``, true when
        #: promotion candidates are pending, and the engine's
        #: ``promote_candidates(now)``.
        self.on_page_access = None
        self.on_promotion_candidates = None
        self._last_flush_scan = 0.0

    # -- public API -------------------------------------------------------------

    def access_line(
        self, lpa: int, line: int, is_write: bool, now: float,
        float_hits: bool = False,
    ):
        """Serve one 64 B access to line ``line`` of page ``lpa``
        arriving at the device at ``now``: the one device entry point.

        With ``float_hits`` an access that cannot carry a hint (a read
        hit, any write) returns its completion time as a bare float;
        every other access returns an :class:`AccessResult`.  The stats
        are the same either way.
        """
        record = self.on_page_access
        if record is not None and record(lpa, is_write, now):
            self.on_promotion_candidates(now)
        if now - self._last_flush_scan >= self._flush_scan_ns:
            self._periodic_persistence(now)
        if is_write:
            return self._write(lpa, line, now, float_hits)
        return self._read(lpa, line, now, float_hits)

    def _periodic_persistence(self, now: float) -> None:
        """Write back dirty pages older than the persistence interval.

        Conventional CXL-SSD caches keep block-device durability
        semantics, so dirtiness cannot sit in volatile DRAM indefinitely;
        SkyByte's battery-backed write log removes exactly this flush
        traffic (§IV), which is where its "larger coalescing window"
        (§III-B) comes from.
        """
        interval = self._ssd.dirty_flush_interval_ns
        if interval <= 0:
            return
        if now - self._last_flush_scan < interval / 4:
            return
        self._last_flush_scan = now
        for entry in list(self.cache.dirty_entries()):
            if entry.dirty_since_ns >= 0 and now - entry.dirty_since_ns >= interval:
                self._writeback(entry, now)
                entry.dirty_mask = 0
                entry.dirty_since_ns = -1.0

    def drain(self, now: float) -> float:
        """Flush every dirty cached page to flash."""
        completion = now
        for entry in list(self.cache.dirty_entries()):
            completion = max(completion, self._writeback(entry, now))
            entry.dirty_mask = 0
        return completion

    def warm_access(self, page: int, line: int, is_write: bool) -> None:
        """Metadata-only warmup replay of one access (§VI-A): pages enter
        the cache as zero-cost fills so LRU state reaches steady state."""
        entry = self.cache.lookup(page, touch_line=line)
        if entry is None:
            self.cache.insert(page, touch_line=line)
            entry = self.cache.peek(page)
        if is_write:
            entry.dirty_mask |= 1 << line
            if entry.dirty_since_ns < 0:
                entry.dirty_since_ns = 0.0

    def invalidate_page(self, lpa: int) -> int:
        """Drop a page from the DRAM cache (after promotion to host).

        Returns the dirty-line bitmap that was dropped, so the migration
        engine can carry the dirty-versus-flash state to the host copy.
        """
        entry = self.cache.evict(lpa)
        self._inflight.pop(lpa, None)
        return entry.dirty_mask if entry is not None else 0

    def demote_page(self, lpa: int, dirty_mask: int, now: float) -> None:
        """Accept a page evicted from host DRAM back into the SSD.

        The clean lines still exist on flash (the mapping was never
        trimmed), so only dirtiness must be recorded: the page re-enters
        the DRAM cache with its host-side dirty lines marked, and the
        normal eviction path eventually writes it back.
        """
        victim = self.cache.insert(lpa)
        entry = self.cache.peek(lpa)
        entry.dirty_mask |= dirty_mask
        entry.touch_mask |= dirty_mask
        if dirty_mask and entry.dirty_since_ns < 0:
            entry.dirty_since_ns = now
        if victim is not None:
            if self._stats.enabled:
                self._stats.cache_evictions += 1
                self._stats.read_locality.record(victim.lines_touched)
            if victim.dirty:
                self._writeback(victim, now)

    def contains_page(self, lpa: int) -> bool:
        return lpa in self.cache

    # -- read path ---------------------------------------------------------------

    def _read(self, lpa: int, line: int, now: float, float_hits: bool):
        """A read, in one body: a hit, a hit on a page whose fetch is
        still in flight (coalesced on the controller MSHR), or a miss
        with Algorithm 1's hint, the page fetch and the sequential
        prefetch."""
        index_ns = self._index_ns
        dram_ns = self._dram_ns
        stats = self._stats
        sets = self._sets
        num_sets = self._num_sets
        cache_set = sets[lpa % num_sets]
        entry = cache_set.get(lpa)
        if entry is not None:
            # ``cache.lookup`` inlined: refresh LRU, mark the line touched.
            cache_set.move_to_end(lpa)
            entry.touch_mask |= 1 << line
            ready = self._inflight.get(lpa, 0.0)
            if ready > now + index_ns:
                # Page is resident-in-name but the fetch is still on the
                # wire: coalesce onto the controller MSHR (no new flash
                # op).  The hint compares the remaining wait itself
                # against the threshold.
                flash_wait = ready - now - index_ns
                if stats.enabled:
                    stats.request_counts[SSD_READ_MISS] += 1
                    stats.amat_indexing_ns += index_ns
                    stats.amat_ssd_dram_ns += dram_ns
                    stats.amat_flash_ns += flash_wait
                    stats.amat_accesses += 1
                trigger = self.trigger
                return AccessResult(
                    complete_ns=ready + dram_ns,
                    request_class=SSD_READ_MISS,
                    delay_hint=(trigger.enabled
                                and flash_wait > trigger.threshold_ns),
                    est_delay_ns=flash_wait,
                    breakdown={
                        "indexing": index_ns,
                        "flash": flash_wait,
                        "ssd_dram": dram_ns,
                    },
                )
            # Hit: the common case, with the stats mutators inlined
            # (skipping the ``+= 0.0`` component adds is exact).
            if stats.enabled:
                stats.cache_hits += 1
                stats.request_counts[SSD_READ_HIT] += 1
                stats.amat_indexing_ns += index_ns
                stats.amat_ssd_dram_ns += dram_ns
                stats.amat_accesses += 1
            if float_hits:
                return now + index_ns + dram_ns
            return AccessResult(
                complete_ns=now + index_ns + dram_ns,
                request_class=SSD_READ_HIT,
                breakdown={"indexing": index_ns, "ssd_dram": dram_ns},
            )

        # Miss: fetch the whole page from flash once the index lookup is
        # done.  Nothing below touches the cache before the fill, so the
        # page is still absent when it is inserted.
        issue = now + index_ns
        if stats.enabled:
            stats.cache_misses += 1
            stats.request_counts[SSD_READ_MISS] += 1
        ftl = self.ftl
        flash_array = self.flash
        qos = self.tenant_map if self._flash_qos else None
        ppa = ftl.translate(lpa)
        if ppa is None:
            # First-touch of a never-written page: no hint, and a mapping
            # is materialised (zero-fill) at the cost of an allocation
            # but no flash read.
            hint, est_ns = False, 0.0
            ppa = ftl.write(lpa)
            self.gc.maybe_collect(flash_array.channel_of(ppa), issue)
            ready = issue
        else:
            # Algorithm 1, decided before the fetch mutates the channel
            # queue (see SkyByteController._read).
            trigger = self.trigger
            channel = ppa // self._pages_per_channel
            est_ns = flash_array.channels[channel].estimate_read_ns()
            hint = trigger.enabled and (
                self._gc_active[channel] or est_ns > trigger.threshold_ns)
            tenant = None if qos is None else qos.tenant_of_page(lpa)
            ready = flash_array.read_page(ppa, issue, tenant=tenant)
        # ``cache.insert`` of an absent page, inlined.
        cache = self.cache
        ways = cache.ways
        victim = None
        if len(cache_set) >= ways:
            _, victim = cache_set.popitem(last=False)
            cache._size -= 1
        cache_set[lpa] = CacheEntry(lpa, 1 << line)
        cache._size += 1
        if victim is not None:
            if stats.enabled:
                stats.cache_evictions += 1
                locality = stats.read_locality
                locality._counts[victim.touch_mask.bit_count()] += 1
                locality._total += 1
            if victim.dirty_mask:
                self._writeback(victim, issue)
        inflight = self._inflight
        inflight[lpa] = ready
        flash_ns = max(0.0, ready - now - index_ns)
        if stats.enabled:
            stats.amat_indexing_ns += index_ns
            stats.amat_ssd_dram_ns += dram_ns
            stats.amat_flash_ns += flash_ns
            stats.amat_accesses += 1

        # Sequential next-page prefetch (one of the baseline's published
        # optimisations).
        for nxt in range(lpa + 1, lpa + self._prefetch_depth + 1):
            nxt_set = sets[nxt % num_sets]
            if nxt in nxt_set:
                continue
            pending = inflight.get(nxt)
            if pending is not None and pending > issue:
                continue
            nxt_ppa = ftl.translate(nxt)
            if nxt_ppa is None:
                continue
            tenant = None if qos is None else qos.tenant_of_page(nxt)
            nxt_ready = flash_array.read_page(nxt_ppa, issue, tenant=tenant)
            victim = None
            if len(nxt_set) >= ways:
                _, victim = nxt_set.popitem(last=False)
                cache._size -= 1
            nxt_set[nxt] = CacheEntry(nxt)
            cache._size += 1
            if stats.enabled:
                stats.prefetch_issued += 1
            if victim is not None:
                if stats.enabled:
                    stats.cache_evictions += 1
                    locality = stats.read_locality
                    locality._counts[victim.touch_mask.bit_count()] += 1
                    locality._total += 1
                if victim.dirty_mask:
                    self._writeback(victim, issue)
            inflight[nxt] = nxt_ready
        return AccessResult(
            complete_ns=ready + dram_ns,
            request_class=SSD_READ_MISS,
            delay_hint=hint,
            est_delay_ns=est_ns,
            breakdown={
                "indexing": index_ns,
                "flash": flash_ns,
                "ssd_dram": dram_ns,
            },
        )

    # -- write path -----------------------------------------------------------------

    def _write(self, lpa: int, line: int, now: float, float_hits: bool):
        if self._stats.enabled:
            self._stats.host_lines_written += 1
        self._stats.count_request(SSD_WRITE)
        index_ns = self._ssd.cache_index_ns
        entry = self.cache.lookup(lpa, touch_line=line)
        if entry is not None:
            entry.dirty_mask |= 1 << line
            if entry.dirty_since_ns < 0:
                entry.dirty_since_ns = now
            ready = self._inflight.get(lpa, 0.0)
            base = max(now + index_ns, ready)
            self._stats.record_amat(
                indexing=index_ns,
                ssd_dram=self._ssd.dram_access_ns,
                flash=max(0.0, ready - now - index_ns),
            )
            if float_hits:
                return base + self._ssd.dram_access_ns
            return AccessResult(
                complete_ns=base + self._ssd.dram_access_ns,
                request_class=SSD_WRITE,
                breakdown={
                    "indexing": index_ns,
                    "ssd_dram": self._ssd.dram_access_ns,
                    "flash": max(0.0, ready - now - index_ns),
                },
            )
        # Write-allocate: the page must be fetched before the line can be
        # merged -- the granularity-mismatch penalty of §II-C.
        ready = self._fetch_page(lpa, now + index_ns, touch_line=line)
        entry = self.cache.peek(lpa)
        if entry is not None:
            entry.dirty_mask |= 1 << line
            if entry.dirty_since_ns < 0:
                entry.dirty_since_ns = now
        flash_ns = max(0.0, ready - now - index_ns)
        self._stats.record_amat(
            indexing=index_ns, flash=flash_ns, ssd_dram=self._ssd.dram_access_ns
        )
        if float_hits:
            return ready + self._ssd.dram_access_ns
        return AccessResult(
            complete_ns=ready + self._ssd.dram_access_ns,
            request_class=SSD_WRITE,
            breakdown={
                "indexing": index_ns,
                "flash": flash_ns,
                "ssd_dram": self._ssd.dram_access_ns,
            },
        )

    # -- internals -----------------------------------------------------------------

    def _fetch_page(self, lpa: int, now: float, touch_line: Optional[int]) -> float:
        """Bring ``lpa`` into the cache; returns data-ready time."""
        inflight = self._inflight.get(lpa)
        if inflight is not None and inflight > now:
            entry = self.cache.lookup(lpa, touch_line=touch_line)
            if entry is not None:
                return inflight
        ppa = self.ftl.translate(lpa)
        if ppa is None:
            # First-touch of a never-written page: materialise a mapping
            # (zero-fill); costs an allocation but no flash read.
            ppa = self.ftl.write(lpa)
            self._run_gc_check(ppa, now)
            ready = now
        else:
            tenant = (
                self.tenant_map.tenant_of_page(lpa) if self._flash_qos else None
            )
            ready = self.flash.read_page(ppa, now, tenant=tenant)
        victim = self.cache.insert(lpa, touch_line=touch_line)
        if victim is not None:
            if self._stats.enabled:
                self._stats.cache_evictions += 1
                self._stats.read_locality.record(victim.lines_touched)
            if victim.dirty:
                self._writeback(victim, now)
        self._inflight[lpa] = ready
        return ready

    def _writeback(self, entry, now: float) -> float:
        """Write a whole dirty page back to flash (page-granular!)."""
        if self._stats.enabled:
            self._stats.cache_dirty_evictions += 1
            self._stats.write_locality.record(entry.lines_dirty)
        ppa = self.ftl.write(entry.lpa)
        done = self.flash.program_page(ppa, now)
        self._run_gc_check(ppa, now)
        return done

    def _run_gc_check(self, ppa: int, now: float) -> None:
        channel = self.flash.channel_of(ppa)
        self.gc.maybe_collect(channel, now)
