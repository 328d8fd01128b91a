"""Common interface between the host-facing simulator and SSD controllers.

Every device personality (Base-CSSD, SkyByte, the AstriFlash host-cache
organisation) has one entry point,
``access_line(lpa, line, is_write, now)``: the host submits one
cacheline access by page and line, and receives an :class:`AccessResult`
describing when the data is ready, how the latency decomposes for AMAT
accounting (Fig. 17), which request class it belongs to (Fig. 16), and
whether the device would answer with a ``SkyByte-Delay`` NDR (the
context-switch hint of Fig. 7).

The host window loop passes ``float_hits=True``: the Base-CSSD and
SkyByte controllers then answer an access that cannot carry a hint (an
SSD DRAM read hit, any write) with its completion time as a bare
``float``; every other access, and every access without ``float_hits``,
gets an :class:`AccessResult`.  The stats are the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(slots=True)
class AccessResult:
    """Outcome of one cacheline access at the SSD.

    Attributes:
        complete_ns: absolute simulation time at which the host has the
            data (reads) or the device has accepted the write.
        request_class: one of the Fig. 16 classes (S-R-H, S-R-M, S-W; the
            host-DRAM class is produced host-side for promoted pages).
        delay_hint: True if the device responds with a ``SkyByte-Delay``
            NDR instead of data -- i.e. Algorithm 1 estimated a latency
            above the context-switch threshold (or a GC blocks the
            channel).  The host may context switch and replay the access.
        est_delay_ns: the device-side latency estimate that produced the
            hint (useful for tests and for the threshold sweep of Fig. 9).
        breakdown: AMAT component -> exposed ns (Fig. 17 stack).
    """

    complete_ns: float
    request_class: str
    delay_hint: bool = False
    est_delay_ns: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: Absolute time the SkyByte-Delay NDR reaches the host CPU (set by
    #: the system's link wrapper when ``delay_hint`` is True); the Long
    #: Delay Exception cannot retire before this.
    hint_arrival_ns: float = 0.0
