"""Host DRAM timing model.

DDR5 per Table II: fixed load-to-use latency with an aggregate-bandwidth
serialisation horizon.  At the cacheline sizes and request rates of these
simulations the bandwidth term is tiny, but modelling it keeps the
"saturating a DDR5 channel needs ~35 concurrent requests" arithmetic of
§II-C honest.
"""

from __future__ import annotations

from repro.config import CACHELINE_SIZE, CPUConfig


class HostDRAM:
    """Fixed-latency, bandwidth-limited host memory."""

    def __init__(self, config: CPUConfig) -> None:
        self._latency_ns = config.dram_latency_ns
        self._bytes_per_ns = config.dram_bandwidth_bytes_per_ns
        self._free_at = 0.0
        self.accesses = 0

    def access(self, now: float, nbytes: int = CACHELINE_SIZE) -> float:
        """Returns the completion time of a ``nbytes`` access at ``now``."""
        start = max(now, self._free_at)
        self._free_at = start + nbytes / self._bytes_per_ns
        self.accesses += 1
        return start + self._latency_ns
