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

The decision itself is two locals in each controller's read-miss body
(:class:`~repro.core.controller.SkyByteController`,
:class:`~repro.ssd.base_controller.BaseCSSDController`), taken before
the fetch mutates the channel queue; this object holds the policy they
read: the threshold and whether device-triggered switching is on.  A
read coalesced onto an in-flight fetch compares its remaining wait
against the same threshold.
"""

from __future__ import annotations


class ContextSwitchTrigger:
    """Threshold-based trigger policy (Algorithm 1)."""

    def __init__(self, threshold_ns: float, enabled: bool = True) -> None:
        self.threshold_ns = threshold_ns
        self.enabled = enabled
