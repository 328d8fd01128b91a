"""TPP-style page hotness tracking (§VI-H, SkyByte-CT / SkyByte-WCT).

TPP (Transparent Page Placement, ASPLOS'23) extends Linux NUMA balancing:
it *samples* accesses periodically and promotes pages that appear on the
active LRU list, instead of counting every access.  The paper uses it as
the software alternative to SkyByte's per-page counters and finds it
"slightly worse ... because TPP uses periodic sampling to estimate page
hotness, which is less accurate than the per-page tracking in SkyByte".

This implementation keeps that character: each access is observed only
with probability ``sample_rate``; a first sampled touch within an epoch
puts the page on the inactive list, a second moves it to the active list;
active pages are promoted at the epoch boundary.  Sampling both misses
truly hot pages and promotes merely lukewarm ones.
"""

from __future__ import annotations

import random
from typing import List, Set


class TPPHotnessPolicy:
    """Sampling + two-list (inactive/active) hotness estimation."""

    def __init__(
        self,
        sample_rate: float = 0.1,
        epoch_ns: float = 1_000_000.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        if not epoch_ns > 0.0:
            raise ValueError("epoch_ns must be positive")
        self.sample_rate = sample_rate
        self.epoch_ns = epoch_ns
        self._rng = random.Random(seed)
        self._inactive: Set[int] = set()
        self._active: Set[int] = set()
        self._promoted_out: Set[int] = set()
        self._epoch_start = 0.0
        self._pending: List[int] = []

    def record_access(self, page: int, is_write: bool, now: float) -> bool:
        """Observe one access; returns True exactly when a promotion
        candidate is pending.  Only an epoch roll makes candidates, and
        a :meth:`take_candidates` at the same ``now`` rolls nothing more
        (``epoch_ns > 0``)."""
        self._roll_epoch(now)
        if page not in self._promoted_out and (
            self._rng.random() < self.sample_rate  # else invisible to TPP
            and page not in self._active
        ):
            if page in self._inactive:
                self._inactive.discard(page)
                self._active.add(page)
            else:
                self._inactive.add(page)
        return bool(self._pending)

    def take_candidates(self, now: float) -> List[int]:
        self._roll_epoch(now)
        pending, self._pending = self._pending, []
        return pending

    def forget(self, page: int) -> None:
        self._inactive.discard(page)
        self._active.discard(page)
        self._promoted_out.discard(page)

    def _roll_epoch(self, now: float) -> None:
        if now - self._epoch_start < self.epoch_ns:
            return
        # Epoch boundary: active pages get promoted; inactive list decays.
        self._epoch_start = now
        for page in self._active:
            self._pending.append(page)
            self._promoted_out.add(page)
        self._active.clear()
        self._inactive.clear()
