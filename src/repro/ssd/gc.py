"""Garbage collection.

Greedy, channel-local GC as in SimpleSSD-style firmware models: when a
channel's free-block pool drops to a reserve, pick the FULL blocks with the
fewest valid pages, relocate their live pages (a flash read plus a program
each), then erase.  All operations are submitted to the channel's FIFO
queue, so in-flight and subsequent host requests on that channel queue up
behind the GC -- exactly the multi-millisecond blocking behaviour the paper
identifies as a main source of tail latency (§II-C) and that Algorithm 1's
queue-sum estimator accounts for.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config import SSDConfig
from repro.sim.engine import Engine
from repro.sim.stats import SimStats
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import PageFTL


def campaign_sizes(config: SSDConfig) -> Tuple[int, int]:
    """``(reserve_blocks, blocks_per_campaign)`` per channel of ``config``.

    The reserve is the free-block floor that triggers a GC campaign: a
    small fraction of the 20% slack the 80% utilisation threshold
    (Table II) leaves.  Preconditioning fills the device to just above
    it.  Campaigns are deliberately small so each lasts the "few
    milliseconds" the paper attributes to a GC (§II-C): one block's
    worth of moves plus its erase.
    """
    blocks_per_channel = config.geometry.blocks_per_channel
    reserve = max(2, int(blocks_per_channel * (1.0 - config.gc_threshold) * 0.15))
    return reserve, max(1, int(blocks_per_channel * config.gc_free_fraction))


class GarbageCollector:
    """Channel-local greedy garbage collector."""

    @classmethod
    def start_level(cls, config: SSDConfig) -> int:
        """Free blocks per channel at or below which a campaign starts."""
        return campaign_sizes(config)[0]

    def __init__(
        self,
        config: SSDConfig,
        ftl: PageFTL,
        flash: FlashArray,
        engine: Engine,
        stats: SimStats,
    ) -> None:
        self._config = config
        self._ftl = ftl
        self._flash = flash
        self._engine = engine
        self._stats = stats
        #: The free-block floor that triggers a campaign, and the blocks
        #: a campaign frees (:func:`campaign_sizes`).
        self.reserve_blocks, self.blocks_per_campaign = campaign_sizes(config)
        #: Per channel: a GC campaign currently occupies it (a read
        #: miss there triggers a context switch at once, §III-A).
        self.active = [False] * config.geometry.channels
        self._in_emergency = False
        # Emergency reclamation when an allocation finds the channel dry:
        # run a campaign immediately, regardless of any in-flight one
        # (block metadata is released at submission, so the retry works).
        ftl.on_out_of_space = self._emergency_collect

    def needs_collection(self, channel: int) -> bool:
        return (
            self._ftl.free_blocks_in_channel(channel) <= self.reserve_blocks
            and not self.active[channel]
        )

    def _emergency_collect(self, channel: int) -> None:
        """Reentrancy-guarded campaign for allocation-time starvation
        (GC relocations themselves allocate, so guard against recursion)."""
        if self._in_emergency:
            return
        self._in_emergency = True
        try:
            self.collect(channel, self._engine.now)
        finally:
            self._in_emergency = False

    def maybe_collect(self, channel: int, now: float) -> Optional[float]:
        """Run a campaign if the channel is below reserve.

        Returns the campaign completion time, or None if no GC was needed.
        The FTL metadata is updated immediately (the moved pages' new
        locations are visible to subsequent translations); the *time* cost
        is paid through the channel queue.
        """
        if not self.needs_collection(channel):
            return None
        return self.collect(channel, now)

    def collect(self, channel: int, now: float) -> float:
        """Unconditionally run one campaign on ``channel``."""
        self.active[channel] = True
        if self._stats.enabled:
            self._stats.gc_invocations += 1
        completion = now
        freed = 0
        while freed < self.blocks_per_campaign:
            victim = self._ftl.select_victim(channel)
            if victim is None:
                break
            # Relocate live pages within the channel: read + program each.
            for lpa in list(victim.live.values()):
                old_ppa = self._ftl.translate(lpa)
                completion = self._flash.read_page(old_ppa, now)
                new_ppa = self._ftl.relocate(lpa, channel)
                completion = self._flash.program_page(new_ppa, now)
                if self._stats.enabled:
                    self._stats.gc_page_moves += 1
            completion = self._flash.erase_block(victim.index, now)
            self._ftl.release_block(victim)
            freed += 1
        self._trace_campaign(channel, now, completion, freed, "sync")

        def _finish() -> None:
            self.active[channel] = False

        self._engine.schedule_at(completion, _finish)
        return completion

    def _trace_campaign(
        self, channel: int, start_ns: float, end_ns: float, freed: int,
        mode: str,
    ) -> None:
        """Span for a whole campaign on the GC lane of its channel."""
        tracer = getattr(self._flash, "tracer", None)
        if tracer is None or end_ns <= start_ns:
            return
        tracer.complete(
            "gc.campaign", "gc", f"channel {channel}",
            int(start_ns), int(end_ns),
            args={"channel": channel, "blocks_freed": freed, "mode": mode},
        )


class BackgroundGarbageCollector(GarbageCollector):
    """Deferred, paced GC for the deep device model.

    Three differences from the synchronous collector (``docs/DEVICE_MODEL.md``):

    * **Earlier watermark** -- campaigns trigger one campaign's worth of
      blocks above the emergency reserve, buying slack to run off the
      host critical path.
    * **Deferred campaigns** -- :meth:`maybe_collect` marks the channel
      active and schedules the campaign as an engine event instead of
      running it inline in the host request path.
    * **Paced migration** -- each valid page's program is submitted at
      its read's completion and the erase after the last program, so GC
      occupies the command queues for the campaign's real duration
      instead of dumping every op at one instant.

    Campaigns chain: while the channel stays below the watermark and the
    last campaign left more free blocks than it found, the next one is
    scheduled ``gc_idle_ns`` after completion.  Both conditions are required, so
    the event chain always terminates and the engine cannot hang on a
    self-rescheduling GC.  The allocation-time emergency path is
    inherited unchanged: FTL metadata updates stay synchronous, so the
    failed allocation's retry still succeeds immediately.
    """

    @classmethod
    def start_level(cls, config: SSDConfig) -> int:
        """The watermark: one campaign's worth of blocks above the
        synchronous collector's reserve floor."""
        reserve, per_campaign = campaign_sizes(config)
        return reserve + per_campaign

    def __init__(
        self,
        config: SSDConfig,
        ftl: PageFTL,
        flash: FlashArray,
        engine: Engine,
        stats: SimStats,
        idle_ns: float = 50_000.0,
    ) -> None:
        super().__init__(config, ftl, flash, engine, stats)
        self.idle_ns = max(0.0, idle_ns)
        #: Background campaigns start this many free blocks per channel.
        self.watermark = self.start_level(config)

    def needs_collection(self, channel: int) -> bool:
        return (
            self._ftl.free_blocks_in_channel(channel) <= self.watermark
            and not self.active[channel]
        )

    def maybe_collect(self, channel: int, now: float) -> Optional[float]:
        """Defer a campaign to an engine event instead of running inline."""
        if not self.needs_collection(channel):
            return None
        self.active[channel] = True
        self._engine.schedule_at(now, lambda: self._campaign(channel))
        return None

    def _campaign(self, channel: int) -> None:
        device = self._stats.device
        if device is not None and self._stats.enabled:
            device.background_campaigns += 1
        self.collect(channel, self._engine.now)

    def collect(self, channel: int, now: float) -> float:
        """One paced campaign; returns the erase-complete time."""
        self.active[channel] = True
        if self._stats.enabled:
            self._stats.gc_invocations += 1
        device = self._stats.device
        completion = now
        freed = 0
        free_before = self._ftl.free_blocks_in_channel(channel)
        while freed < self.blocks_per_campaign:
            victim = self._ftl.select_victim(channel)
            if victim is None:
                break
            erase_at = now
            for lpa in list(victim.live.values()):
                old_ppa = self._ftl.translate(lpa)
                read_done = self._flash.read_page(old_ppa, now)
                new_ppa = self._ftl.relocate(lpa, channel)
                program_done = self._flash.program_page(new_ppa, read_done)
                erase_at = max(erase_at, program_done)
                if self._stats.enabled:
                    self._stats.gc_page_moves += 1
                    if device is not None:
                        device.gc_reads += 1
                        device.gc_programs += 1
            completion = self._flash.erase_block(victim.index, erase_at)
            if device is not None and self._stats.enabled:
                device.gc_erases += 1
            self._ftl.release_block(victim)
            freed += 1
        # Relocating a victim's live pages takes free pages too: only a
        # campaign that left more free blocks than it found made progress.
        made_progress = self._ftl.free_blocks_in_channel(channel) > free_before
        self._trace_campaign(channel, now, completion, freed, "background")

        def _finish() -> None:
            self.active[channel] = False
            if (
                made_progress
                and self._ftl.free_blocks_in_channel(channel) <= self.watermark
            ):
                self.active[channel] = True
                self._engine.schedule_at(
                    self._engine.now + self.idle_ns,
                    lambda: self._campaign(channel),
                )

        self._engine.schedule_at(completion, _finish)
        return completion
