"""Adaptive page migration (§III-C).

The SSD controller counts accesses per page; pages whose count crosses a
threshold *and* that are resident in the SSD DRAM cache become promotion
candidates.  A promotion raises an MSI-X interrupt; the host OS allocates
a frame, copies the page over the CXL link while a PLB entry keeps
accesses consistent, then updates the PTE (with a TLB shootdown) and the
SSD drops its cached copies.  When the host budget fills, a cold promoted
page is demoted back first: its host-side dirty cachelines are written to
the SSD (they re-enter through the normal write path) and the PTE points
back at CXL space.

Hotness tracking is pluggable so §VI-H's alternatives slot in:
:class:`SkyByteHotnessPolicy` is the paper's per-page counter;
``TPPHotnessPolicy`` (in :mod:`repro.baselines.tpp`) is the
sampling-based mechanism of TPP, which is deliberately less accurate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol

from repro.config import PAGE_SIZE, SimConfig
from repro.cxl.link import CXLLink
from repro.host.page_table import PageTable
from repro.host.plb import PromotionLookasideBuffer
from repro.sim.engine import Engine
from repro.sim.stats import SimStats


class HotnessPolicy(Protocol):
    """Decides which pages are hot enough to promote."""

    def record_access(self, page: int, is_write: bool, now: float) -> None:
        ...

    def take_candidates(self, now: float) -> List[int]:
        """Pages to promote now; each page is returned at most once until
        it is demoted again."""
        ...

    def forget(self, page: int) -> None:
        """Reset tracking for a page (after promotion or demotion)."""
        ...


class SkyByteHotnessPolicy:
    """Per-page access counters with a fixed promotion threshold (the
    paper's default, following FlatFlash/Thermostat-style tracking)."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self._counts: Dict[int, int] = {}
        self._pending: List[int] = []
        self._tracked_out: set = set()

    def record_access(self, page: int, is_write: bool, now: float) -> None:
        if page in self._tracked_out:
            return
        count = self._counts.get(page, 0) + 1
        self._counts[page] = count
        if count == self.threshold:
            self._pending.append(page)
            self._tracked_out.add(page)

    def take_candidates(self, now: float) -> List[int]:
        pending, self._pending = self._pending, []
        return pending

    def forget(self, page: int) -> None:
        self._counts.pop(page, None)
        self._tracked_out.discard(page)


@dataclass
class MigrationRecord:
    """Bookkeeping for one completed promotion (tests/inspection)."""

    page: int
    start_ns: float
    end_ns: float


class MigrationEngine:
    """Drives promotions and demotions between SSD DRAM and host DRAM."""

    def __init__(
        self,
        config: SimConfig,
        controller,
        page_table: PageTable,
        link: CXLLink,
        engine: Engine,
        stats: SimStats,
        policy: Optional[HotnessPolicy] = None,
    ) -> None:
        self._config = config
        self._controller = controller
        self._page_table = page_table
        self._link = link
        self._engine = engine
        self._stats = stats
        self.policy = policy or SkyByteHotnessPolicy(config.ssd.promotion_threshold)
        self.plb = PromotionLookasideBuffer()
        self.budget_pages = max(
            1, config.cpu.host_promote_budget_bytes // PAGE_SIZE
        )
        self.history: List[MigrationRecord] = []
        #: Called after a TLB shootdown so cores can account its cost.
        self.on_tlb_shootdown: Optional[Callable[[float], None]] = None
        #: Optional sim-time timeline tracer (see :mod:`repro.obs.timeline`).
        self.tracer = None

    # -- SSD-side hook ---------------------------------------------------------

    def on_page_access(self, page: int, is_write: bool, now: float) -> None:
        """Installed as the controller's page-access observer."""
        self.policy.record_access(page, is_write, now)
        for candidate in self.policy.take_candidates(now):
            self._try_promote(candidate, now)

    # -- promotion ----------------------------------------------------------------

    def _try_promote(self, page: int, now: float) -> bool:
        if self._page_table.is_promoted(page) or self.plb.is_migrating(page):
            return False
        # "SkyByte only migrates pages in the SSD DRAM cache, as it
        # includes the candidate hot pages."
        if not self._controller.contains_page(page):
            self.policy.forget(page)
            return False
        # A refused promotion forgets the page, so it can earn candidacy
        # again; left tracked out, it could never be promoted.
        if self._page_table.promoted_count + len(self.plb) >= self.budget_pages:
            self._demote_coldest(now)
            if self._page_table.promoted_count + len(self.plb) >= self.budget_pages:
                self.policy.forget(page)
                return False
        entry = self.plb.begin(page, dst_frame=-1)
        if entry is None:  # PLB full: hardware says wait
            self.policy.forget(page)
            return False

        # Timing: MSI-X + OS handling, then the 4 KB copy upstream.
        os_cfg = self._config.os
        copy_start = now + os_cfg.migration_handling_ns
        copy_done = self._link.send_upstream(copy_start, PAGE_SIZE)
        finish = copy_done + os_cfg.tlb_shootdown_ns

        def _complete() -> None:
            self._finish_promotion(page, now, finish)

        self._engine.schedule_at(finish, _complete)
        return True

    def _finish_promotion(self, page: int, start_ns: float, end_ns: float) -> None:
        plb_entry = self.plb.lookup(page)
        if plb_entry is not None:
            # All lines copied by completion time.
            plb_entry.migrated_mask = (1 << 64) - 1
            self.plb.complete(page)
        carried = self._controller.invalidate_page(page)
        if carried is None:
            carried = 0
        self._page_table.promote(page, carried_dirty_mask=carried)
        self.policy.forget(page)
        if self._stats.enabled:
            self._stats.pages_promoted += 1
        self.history.append(MigrationRecord(page, start_ns, end_ns))
        if self.tracer is not None:
            self.tracer.complete(
                "migration.promote", "migration", "promotions",
                int(start_ns), int(end_ns), args={"page": page},
            )
        if self.on_tlb_shootdown is not None:
            self.on_tlb_shootdown(self._config.os.tlb_shootdown_ns)

    # -- warmup -----------------------------------------------------------------------

    def warm_access(self, page: int, is_write: bool) -> None:
        """Warmup replay: hotness tracking and *instant* promotions so the
        timed run starts from the steady-state page placement (the paper
        warms "the host memory" with the traces, §VI-A)."""
        if self._page_table.is_promoted(page):
            self._page_table.record_host_access(page, 0, is_write, 0.0)
            return
        self.policy.record_access(page, is_write, 0.0)
        for candidate in self.policy.take_candidates(0.0):
            if self._page_table.is_promoted(candidate):
                continue
            if not self._controller.contains_page(candidate):
                self.policy.forget(candidate)
                continue
            if self._page_table.promoted_count >= self.budget_pages:
                victim = self._page_table.coldest_promoted()
                if victim is None:
                    continue
                self._page_table.demote(victim)
                self.policy.forget(victim)
            carried = self._controller.invalidate_page(candidate) or 0
            self._page_table.promote(candidate, carried_dirty_mask=carried)
            self.policy.forget(candidate)

    # -- demotion ------------------------------------------------------------------

    def _demote_coldest(self, now: float) -> bool:
        victim = self._page_table.coldest_promoted()
        if victim is None:
            return False
        # Hysteresis: don't churn pages that were hot a moment ago.
        entry = self._page_table.entry(victim)
        if now - entry.last_access_ns < self._config.os.demote_min_idle_ns:
            return False
        return self.demote(victim, now)

    def demote(self, page: int, now: float) -> bool:
        """Evict a promoted page back to the SSD (§III-C's reclamation)."""
        if not self._page_table.is_promoted(page):
            return False
        _entry, dirty_mask = self._page_table.demote(page)
        # Copy travels back over the CXL link; dirty lines re-enter the
        # SSD through its normal write path (write log or page cache).
        self._link.send_downstream(now, PAGE_SIZE)
        self._controller.demote_page(page, dirty_mask, now)
        self.policy.forget(page)
        if self._stats.enabled:
            self._stats.pages_demoted += 1
        if self.tracer is not None:
            self.tracer.instant(
                "migration.demote", "migration", "demotions", int(now),
                args={"page": page},
            )
        if self.on_tlb_shootdown is not None:
            self.on_tlb_shootdown(self._config.os.tlb_shootdown_ns)
        return True
