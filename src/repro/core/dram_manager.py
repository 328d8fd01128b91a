"""CXL-aware SSD DRAM manager (§III-B, Fig. 11).

Splits the SSD DRAM into the cacheline-granular write log and the
page-granular data cache, and implements the paper's access paths:

Reads:
  * **R1** data-cache hit: serve from the cached page (49 ns index).
  * **R2** cache miss, write-log hit: serve the logged line (72 ns index).
  * **R3** both miss: fetch the page from flash, merge any logged lines
    into it, install in the data cache, serve the target line.

Writes:
  * **W1** append the line to the write log (never a flash access on the
    critical path).
  * **W2** update the resident data-cache copy in parallel, if any.
  * **W3** update the two-level log index.

When the active log buffer fills, the buffers swap and the full one is
compacted in the background.  If the standby buffer has not finished
draining (extreme write pressure), the write stalls until it has --
double-buffering makes this rare, matching the paper's claim that
compaction stays off the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional, Tuple

from repro.config import SSDConfig
from repro.core.compaction import LogCompactor
from repro.core.data_cache import QuotaDataCache, SkyByteDataCache
from repro.core.write_log import PartitionedWriteLog, WriteLog
from repro.sim.engine import Engine
from repro.sim.stats import SimStats
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import GarbageCollector


@dataclass(slots=True)
class WriteOutcome:
    """Result of a DRAM-manager write."""

    ready_ns: float
    indexing_ns: float
    stalled_ns: float  # time spent waiting for a draining buffer


class SkyByteDRAMManager:
    """The write log + data cache pair and their interaction."""

    def __init__(
        self,
        config: SSDConfig,
        ftl: PageFTL,
        flash: FlashArray,
        gc: GarbageCollector,
        engine: Engine,
        stats: SimStats,
        qos=None,
    ) -> None:
        self._config = config
        self._stats = stats
        # ``qos`` is a repro.qos.TenantMap (or None).  It selects the
        # write-log / data-cache organisation; the flash arbiter is
        # installed by the controller.
        if qos is not None and qos.log_partitioning:
            self.write_log = PartitionedWriteLog(config.write_log_entries, qos)
        else:
            self.write_log = WriteLog(config.write_log_entries)
        cache_pages = max(1, config.data_cache_bytes // config.geometry.page_size)
        if qos is not None and qos.cache_quota:
            self.data_cache = QuotaDataCache(
                cache_pages, config.cache_ways, stats, qos
            )
        else:
            self.data_cache = SkyByteDataCache(
                cache_pages, config.cache_ways, stats
            )
        self.compactor = LogCompactor(
            config, self.data_cache, ftl, flash, gc, engine, stats
        )
        # What :meth:`lookup` answers for a hit: the path and its index
        # latency.  An R3 miss needed both parallel lookups: it pays the
        # slower one.
        self._r1 = ("R1", config.cache_index_ns)
        self._r2 = ("R2", config.log_index_ns)
        self.miss_index_ns = max(config.cache_index_ns, config.log_index_ns)

    # -- read path ------------------------------------------------------------

    def lookup(self, lpa: int, line: int) -> Optional[Tuple[str, float]]:
        """R1 then R2: ``(path, index latency)`` when SSD DRAM can serve
        the read, ``None`` on an R3 miss.  A data-cache hit refreshes
        LRU and marks the line touched.

        The controller serves the read itself
        (:meth:`SkyByteController._read
        <repro.core.controller.SkyByteController._read>`): it looks R1
        and R2 up in the structures directly unless the data cache is
        split into tenant quotas, and it fetches an R3 miss from flash,
        merges the logged lines into it (:meth:`WriteLog.line_mask`) and
        installs it, deciding Algorithm 1's hint before the fetch."""
        if self.data_cache.lookup(lpa, line) is not None:
            # R1 -- resident pages are kept up to date by W2/R3 merges.
            return self._r1
        if self.write_log.has_line(lpa, line):
            # R2 -- newest copy lives in the log.
            return self._r2
        return None

    #: High-water mark: compaction starts when the active buffer reaches
    #: this fill fraction (waiting for completely full risks stalling
    #: writers whenever the drain is slower than the fill).
    COMPACT_HIGH_WATER = 0.75

    # -- write path --------------------------------------------------------------

    def write(self, lpa: int, line: int, now: float) -> WriteOutcome:
        """W1 append + W2 parallel cache update + W3 index update.

        All log operations go through ``log_for(lpa)``: the whole log in
        the default organisation, the owning tenant's share under
        "log-partition" isolation -- so a stalled writer waits only on
        *its own* share's drain horizon, never a neighbour's.
        """
        log = self.write_log.log_for(lpa)
        log_idx = self._config.log_index_ns
        stalled = 0.0
        if log.active.full:
            # Both buffers saturated: wait for the draining one.  The
            # engine's finish event may not have fired yet at this logical
            # time, so reclaim the drained buffer directly.
            if not log.can_swap():
                wait_until = log.drain_until
                stalled = max(0.0, wait_until - now)
                now = max(now, wait_until)
                if log.standby.draining:
                    log.standby.reset()
            self._swap_and_compact(log, now)
        log.append(lpa, line)
        if self._stats.enabled:
            self._stats.log_appends += 1
        self.data_cache.update_on_write(lpa, line)
        high_water = log.active.used >= int(
            self.COMPACT_HIGH_WATER * log.active.capacity
        )
        if high_water and log.can_swap():
            self._swap_and_compact(log, now)
        return WriteOutcome(
            ready_ns=now + log_idx,
            indexing_ns=log_idx,
            stalled_ns=stalled,
        )

    # -- warmup (metadata-only, no timing) ---------------------------------------

    def warm_read(self, lpa: int, line: int) -> None:
        """Warmup replay of a read: bring the page into the data cache as
        a zero-cost fill so LRU state reaches steady state (§VI-A)."""
        if self.lookup(lpa, line) is None:
            self.data_cache.fill(lpa, line, self.write_log.line_mask(lpa))

    def warm_write(self, lpa: int, line: int) -> None:
        """Warmup replay of a write: append to the log without scheduling
        compaction; a full buffer is silently recycled."""
        log = self.write_log.log_for(lpa)
        if log.active.full:
            if log.can_swap():
                log.swap()
            log.standby.reset()
            if log.active.full:
                log.swap()
                log.standby.reset()
        log.append(lpa, line)
        self.data_cache.update_on_write(lpa, line)

    # -- maintenance -----------------------------------------------------------------

    def _swap_and_compact(self, log: WriteLog, now: float) -> None:
        full_buffer = log.swap()
        completion = self.compactor.compact(full_buffer, now)
        log.drain_until = max(log.drain_until, completion)

    def flush_all(self, now: float) -> float:
        """Drain both buffers (end-of-run accounting)."""
        completion = now
        for buffer in self.write_log.buffers:
            if buffer.used and not buffer.draining:
                buffer.draining = True
                completion = max(completion, self.compactor.compact(buffer, now))
        return completion

    def invalidate_page(self, lpa: int) -> None:
        """Remove a promoted page from both structures (§III-C)."""
        self.data_cache.invalidate(lpa)
        self.write_log.remove_page(lpa)

    def contains_page(self, lpa: int) -> bool:
        return lpa in self.data_cache or self.write_log.has_page(lpa)
