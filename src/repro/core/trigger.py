"""Context-switch trigger policy (Algorithm 1 of the paper).

The SSD controller decides, per read that misses its DRAM, whether the
host should context switch instead of stalling.  The estimate is derived
purely from the target flash channel's queue occupancy -- the counters
:class:`repro.ssd.flash.FlashChannel` maintains -- because channel queues
are served FIFO.  If a garbage collection currently occupies the channel
the switch is triggered immediately ("as GCs typically last for
milliseconds", §III-A); the GC's queued erases/programs are also visible
to the estimator through the counters, matching the paper's note that the
GC impact "is already considered in the latency prediction algorithm".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ssd.flash import FlashArray
from repro.ssd.gc import GarbageCollector


@dataclass(slots=True)
class TriggerDecision:
    """Outcome of the trigger policy for one request."""

    trigger: bool
    estimated_ns: float


class ContextSwitchTrigger:
    """Threshold-based trigger policy (Algorithm 1)."""

    def __init__(
        self,
        threshold_ns: float,
        flash: FlashArray,
        gc: GarbageCollector,
        enabled: bool = True,
    ) -> None:
        self.threshold_ns = threshold_ns
        self._flash = flash
        self._gc = gc
        self.enabled = enabled

    def should_context_switch(self, ppa: int) -> TriggerDecision:
        """Algorithm 1: estimate the new read's latency from the channel
        queue and compare against the threshold."""
        channel = self._flash.channel_of(ppa)
        estimated = self._flash.channels[channel].estimate_read_ns()
        if not self.enabled:
            return TriggerDecision(False, estimated)
        if self._gc.is_active(channel):
            return TriggerDecision(True, estimated)
        return TriggerDecision(estimated > self.threshold_ns, estimated)
