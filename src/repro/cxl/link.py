"""CXL link timing model.

The paper's device is "CXL over PCIe 5.0 x4 (16 GB/s, 40 ns protocol
latency)" (Table II).  Every transaction pays the protocol latency; the
link itself is a serialising resource so sustained traffic beyond 16 GB/s
queues.  The model keeps a single ``free_at`` horizon per direction, which
is accurate for the FIFO flit scheduling of real links and cheap enough to
call per cacheline.
"""

from __future__ import annotations

from repro.config import CXLConfig
from repro.sim.stats import SimStats


class CXLLink:
    """One CXL port: paired upstream/downstream serialising channels."""

    #: Flit overhead bytes accompanying each message (header + CRC share).
    FLIT_OVERHEAD = 4

    def __init__(self, config: CXLConfig, stats: SimStats) -> None:
        self._config = config
        self._stats = stats
        self._down_free_at = 0.0  # host -> device

    @property
    def protocol_ns(self) -> float:
        return self._config.protocol_ns

    def send_downstream(self, now: float, payload_bytes: int) -> float:
        """Transmit host->device; returns arrival time at the device.

        Downstream sends always happen at the current simulation time, so
        a FIFO ``free_at`` horizon correctly models back-to-back bursts
        from one window of requests.
        """
        self._down_free_at, arrival = self._transfer(
            now, payload_bytes, self._down_free_at
        )
        return arrival

    def send_upstream(self, ready_ns: float, payload_bytes: int) -> float:
        """Transmit device->host; returns arrival time at the host.

        Upstream responses are *scheduled at their data-ready times*, which
        the caller presents out of order (a flash miss's response is ready
        microseconds after a hit's that was requested later).  The link
        serves responses in ready order, so each message pays its own
        serialisation delay; no cross-message horizon is kept (demand at
        these request rates is far below 16 GB/s -- utilisation is still
        metered for the bandwidth figures).
        """
        nbytes = payload_bytes + self.FLIT_OVERHEAD
        self._stats.add_cxl_bytes(nbytes)
        return ready_ns + self._config.transfer_ns(nbytes) + self._config.protocol_ns

    def _transfer(self, now: float, payload_bytes: int, free_at: float):
        nbytes = payload_bytes + self.FLIT_OVERHEAD
        start = max(now, free_at)
        serialisation = self._config.transfer_ns(nbytes)
        new_free_at = start + serialisation
        arrival = new_free_at + self._config.protocol_ns
        self._stats.add_cxl_bytes(nbytes)
        return new_free_at, arrival
