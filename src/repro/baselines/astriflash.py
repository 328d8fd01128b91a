"""AstriFlash-CXL baseline (§VI-H).

AstriFlash (HPCA'23) treats host DRAM as a *hardware-managed,
set-associative* cache of the SSD at 4 KB page granularity and hides SSD
I/O latency with cheap user-level thread switches triggered by host DRAM
misses.  The paper applies it on top of Base-CSSD ("AstriFlash-CXL") and
contrasts it with SkyByte's approach: AstriFlash "still treats the SSD as
a black box and manages it at page granularity", relies on on-demand
paging for every miss, and its set-associative host cache suffers
conflict misses where SkyByte's promotion-based scheme uses host DRAM as
a fully associative pool of only-hot pages.

The controller below wraps an inner :class:`BaseCSSDController`: host
cache hits cost a host-DRAM access and never touch the link; misses fetch
the whole 4 KB page over CXL from the inner SSD and always carry a
``delay_hint`` so the core performs a *user-level* switch (the host knows
a host-DRAM miss means microsecond-scale latency).
"""

from __future__ import annotations

from repro.config import PAGE_SIZE, SimConfig
from repro.cxl.link import CXLLink
from repro.sim.engine import Engine
from repro.sim.stats import HOST_DRAM, SimStats
from repro.ssd.base_cache import FULL_MASK, SetAssociativePageCache
from repro.ssd.base_controller import BaseCSSDController
from repro.ssd.interface import AccessResult


class AstriFlashController:
    """Host-DRAM-as-cache organisation in front of a Base-CSSD device."""

    #: Set-associativity of the hardware-managed host cache.
    HOST_CACHE_WAYS = 8

    #: Tells the system model that CXL link costs are handled here.
    handles_link = True

    def __init__(
        self,
        config: SimConfig,
        engine: Engine,
        stats: SimStats,
        link: CXLLink,
    ) -> None:
        self._config = config
        self._stats = stats
        self._link = link
        self.inner = BaseCSSDController(config, engine, stats, ctx_switch_enabled=False)
        host_pages = max(1, config.cpu.host_promote_budget_bytes // PAGE_SIZE)
        self.host_cache = SetAssociativePageCache(host_pages, self.HOST_CACHE_WAYS)
        self.user_level_switch_ns = config.os.user_level_switch_ns

    # expose the FTL and flash for preconditioning/inspection
    @property
    def ftl(self):
        return self.inner.ftl

    @property
    def flash(self):
        return self.inner.flash

    def access_line(
        self, lpa: int, line: int, is_write: bool, now: float
    ) -> AccessResult:
        """One 64 B access issued by the host at ``now`` (this controller
        owns the link, so ``now`` is host time, not device arrival)."""
        dram_ns = self._config.cpu.dram_latency_ns
        entry = self.host_cache.lookup(lpa, touch_line=line)
        if entry is not None:
            if is_write:
                entry.dirty_mask |= 1 << line
                if self._stats.enabled:
                    self._stats.host_lines_written += 1
            self._stats.count_request(HOST_DRAM)
            self._stats.record_amat(host_dram=dram_ns)
            return AccessResult(
                complete_ns=now + dram_ns,
                request_class=HOST_DRAM,
                breakdown={"host_dram": dram_ns},
            )

        # Host DRAM miss: on-demand page fetch from the SSD over CXL.
        # AstriFlash switches threads (user-level) on every such miss.
        arrive_dev = self._link.send_downstream(now, 8)
        inner_result = self.inner.access_line(lpa, line, False, arrive_dev)
        # The whole 4 KB page crosses the link into the host cache.
        arrive_host = self._link.send_upstream(inner_result.complete_ns, PAGE_SIZE)
        self._stats.add_amat_extra(
            protocol=(arrive_dev - now) + (arrive_host - inner_result.complete_ns)
        )
        victim = self.host_cache.insert(lpa, touch_line=line)
        if victim is not None and victim.dirty:
            self._writeback_victim(victim, arrive_host)
        entry = self.host_cache.peek(lpa)
        if is_write:
            entry.dirty_mask |= 1 << line
            if self._stats.enabled:
                self._stats.host_lines_written += 1
        complete = arrive_host + dram_ns
        return AccessResult(
            complete_ns=complete,
            request_class=inner_result.request_class,
            delay_hint=True,  # always a user-level switch on host miss
            est_delay_ns=complete - now,
            breakdown={"host_dram": dram_ns, "inner": complete - now - dram_ns},
        )

    def _writeback_victim(self, victim, now: float) -> None:
        """Page-granular writeback: the whole page travels back and is
        marked fully dirty at the SSD (the black-box, page-granular
        behaviour the paper contrasts with the write log)."""
        self._link.send_downstream(now, PAGE_SIZE)
        self.inner.demote_page(victim.lpa, FULL_MASK, now)

    def drain(self, now: float) -> float:
        completion = now
        for entry in list(self.host_cache.dirty_entries()):
            self._writeback_victim(entry, now)
            entry.dirty_mask = 0
        return self.inner.drain(completion)

    def warm_access(self, page: int, line: int, is_write: bool) -> None:
        """Metadata-only warmup: fill the host cache (and the inner SSD
        cache for the pages that spill past it)."""
        entry = self.host_cache.lookup(page, touch_line=line)
        if entry is None:
            self.host_cache.insert(page, touch_line=line)
            entry = self.host_cache.peek(page)
            self.inner.warm_access(page, line, False)
        if is_write:
            entry.dirty_mask |= 1 << line

    # Migration API stubs: AstriFlash has no promotion mechanism.
    def contains_page(self, lpa: int) -> bool:
        return self.inner.contains_page(lpa)

    def invalidate_page(self, lpa: int) -> int:
        return self.inner.invalidate_page(lpa)

    def demote_page(self, lpa: int, dirty_mask: int, now: float) -> None:
        self.inner.demote_page(lpa, dirty_mask, now)
