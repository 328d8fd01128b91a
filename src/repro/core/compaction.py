"""Write-log compaction (§III-B, Fig. 13).

When a log buffer fills, SkyByte swaps to the standby buffer and flushes
the full one in the background:

* **L1** scan the first-level hash table for pages with logged lines;
* **L2** if the page is resident in the data cache, flush the (already
  up-to-date) cached copy straight to flash;
* **L3** otherwise load the flash page into a coalescing buffer;
* **L4** merge the logged dirty lines into it;
* **L5** program the merged page back, striping pages across channels.

Because only the *newest* copy of each line is indexed, all older
duplicate writes in the log are dropped here -- this is the write
coalescing that produces the 23x flash-traffic reduction of Fig. 18.
Compaction competes with host reads for the flash channels (the paper's
§VI-C notes the interference), which the FIFO channel queues capture
naturally.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import SSDConfig
from repro.core.data_cache import SkyByteDataCache
from repro.core.write_log import LogBuffer
from repro.sim.engine import Engine
from repro.sim.stats import SimStats
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import GarbageCollector


class LogCompactor:
    """Background compaction of full write-log buffers."""

    def __init__(
        self,
        config: SSDConfig,
        data_cache: SkyByteDataCache,
        ftl: PageFTL,
        flash: FlashArray,
        gc: GarbageCollector,
        engine: Engine,
        stats: SimStats,
    ) -> None:
        self._config = config
        self._cache = data_cache
        self._ftl = ftl
        self._flash = flash
        self._gc = gc
        self._engine = engine
        self._stats = stats
        self.active_until = 0.0

    def compact(
        self,
        buffer: LogBuffer,
        now: float,
        on_done: Optional[Callable[[float], None]] = None,
    ) -> float:
        """Flush every page with logged lines in ``buffer`` to flash.

        Returns the completion time.  FTL metadata updates are immediate;
        the time cost flows through the channel queues.  The buffer is
        reset (space reclaimed, index dropped) at completion.
        """
        completion = now
        pages_flushed = 0
        # Pace the background flushes at roughly the array's aggregate
        # program bandwidth instead of dumping everything into the queues
        # at one instant -- a burst would stall concurrent host reads far
        # beyond the interference the paper observes (§VI-C).
        geo = self._config.geometry
        total_dies = geo.channels * geo.chips_per_channel * geo.dies_per_chip
        # Reads are protected by program suspension, so compaction may run
        # at the array's full program bandwidth.
        pace_ns = self._config.timing.program_ns / max(1, total_dies)
        when = now
        for lpa in list(buffer.index.pages()):
            lines = buffer.index.lines_for_page(lpa)
            if not lines:
                continue
            dirty_count = len(lines)
            cached = self._cache.peek(lpa)
            if cached is None:
                # L3: load the page into the coalescing buffer first.
                old_ppa = self._ftl.translate(lpa)
                if old_ppa is not None:
                    completion = max(completion, self._flash.read_page(old_ppa, when))
            # L4+L5: merge and program the page; FTL round-robin stripes
            # consecutive pages across channels.
            new_ppa = self._ftl.write(lpa)
            completion = max(completion, self._flash.program_page(new_ppa, when))
            self._gc.maybe_collect(self._flash.channel_of(new_ppa), when)
            pages_flushed += 1
            when += pace_ns
            if self._stats.enabled:
                self._stats.write_locality.record(dirty_count)
                self._stats.compaction_pages_flushed += 1

        if self._stats.enabled:
            self._stats.log_compactions += 1
            self._stats.compaction_ns += completion - now
        tracer = getattr(self._flash, "tracer", None)
        if tracer is not None and completion > now:
            tracer.complete(
                "writelog.drain", "writelog", "compactor",
                int(now), int(completion),
                args={"pages_flushed": pages_flushed,
                      "generation": buffer.generation},
            )
        self.active_until = max(self.active_until, completion)
        generation = buffer.generation

        def _finish() -> None:
            # The buffer may have been force-reclaimed (and refilled) by a
            # stalled writer that waited out this compaction; in that case
            # its generation moved on and this event must not wipe it.
            if buffer.generation == generation:
                buffer.reset()
            if on_done is not None:
                on_done(completion)

        self._engine.schedule_at(completion, _finish)
        return completion
