"""Page-level Flash Translation Layer.

Implements the FTL functions the paper's SSD firmware model needs (§V):
logical-to-physical address translation, out-of-place page allocation with
per-channel write points, invalidation bookkeeping, and the per-block
liveness metadata garbage collection consumes.

Logical page addresses (LPAs) are the SSD-visible page indices of the
host-managed device memory; physical page addresses (PPAs) follow the
channel-major layout of :mod:`repro.ssd.flash`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.config import FlashGeometry

#: Memoized post-precondition FTL state per
#: ``(geometry, seed, logical_pages, target_free_blocks)``.  Aging a
#: fresh FTL is deterministic in that key and touches nothing outside
#: the FTL's own bookkeeping (verified: the emergency-GC hook never
#: fired), so sweep cells sharing a device configuration restore the
#: snapshot instead of replaying the whole RNG-driven fill.
_PRECONDITION_MEMO: Dict[tuple, tuple] = {}
_PRECONDITION_MEMO_MAX = 4


class BlockState:
    """Lifecycle states of a flash block."""

    FREE = "free"
    OPEN = "open"
    FULL = "full"


class Block:
    """Metadata for one flash block."""

    __slots__ = ("index", "state", "next_page", "live")

    def __init__(self, index: int) -> None:
        self.index = index
        self.state = BlockState.FREE
        self.next_page = 0
        #: page_in_block -> lpa for every still-valid page in this block.
        self.live: Dict[int, int] = {}

    @property
    def valid_count(self) -> int:
        return len(self.live)


class OutOfSpaceError(RuntimeError):
    """Raised when a channel has no free block to allocate from."""


class PageFTL:
    """Page-mapping FTL with per-channel write points."""

    def __init__(self, geometry: FlashGeometry, seed: int = 0) -> None:
        self.geometry = geometry
        self._mapping: Dict[int, int] = {}  # lpa -> ppa
        self.blocks: List[Block] = [Block(i) for i in range(geometry.total_blocks)]
        #: Emergency hook: called with the starved channel when allocation
        #: finds no free block, giving GC a chance to reclaim one before
        #: the allocation is retried.
        self.on_out_of_space = None
        #: Blocks per channel reserved for GC relocation -- host writes
        #: can never claim them, so a campaign always has somewhere to
        #: move a victim's live pages (every real FTL keeps this floor).
        self.gc_reserved_blocks = 2
        self._free_blocks: List[List[int]] = []
        self._open_block: List[Optional[int]] = []
        self._rng = random.Random(seed)
        self._seed = seed
        self._next_channel = 0
        #: True once the emergency-GC hook has ever run (disqualifies the
        #: preconditioning snapshot: the hook mutates GC/flash state the
        #: snapshot cannot carry).
        self._oos_hook_fired = False
        for ch in range(geometry.channels):
            lo = ch * geometry.blocks_per_channel
            hi = lo + geometry.blocks_per_channel
            self._free_blocks.append(list(range(lo, hi)))
            self._open_block.append(None)

    # -- translation ---------------------------------------------------------

    def translate(self, lpa: int) -> Optional[int]:
        """LPA -> PPA, or None if the page was never written."""
        return self._mapping.get(lpa)

    def is_mapped(self, lpa: int) -> bool:
        return lpa in self._mapping

    @property
    def mapped_pages(self) -> int:
        return len(self._mapping)

    def free_blocks_in_channel(self, channel: int) -> int:
        return len(self._free_blocks[channel])

    # -- allocation / write path ----------------------------------------------

    def pick_write_channel(self) -> int:
        """Round-robin channel selection for striping host writes."""
        ch = self._next_channel
        self._next_channel = (self._next_channel + 1) % self.geometry.channels
        return ch

    def allocate(self, channel: int, for_gc: bool = False) -> int:
        """Claim the next free physical page on ``channel``.

        Host writes (``for_gc=False``) cannot dip below the GC-reserved
        block floor; when they hit it, the emergency-GC hook runs and the
        allocation retries.  GC relocations (``for_gc=True``) may use the
        reserved blocks.  Raises :class:`OutOfSpaceError` only when the
        channel is truly unrecoverable.
        """
        block_idx = self._open_block[channel]
        if block_idx is not None:
            block = self.blocks[block_idx]
            if block.next_page >= self.geometry.pages_per_block:
                block.state = BlockState.FULL
                self._open_block[channel] = None
                block_idx = None
        if block_idx is None:
            floor = 0 if for_gc else self.gc_reserved_blocks
            if len(self._free_blocks[channel]) <= floor:
                if not for_gc and self.on_out_of_space is not None:
                    # Emergency GC: reclaim synchronously, then retry once.
                    self._oos_hook_fired = True
                    self.on_out_of_space(channel)
                if len(self._free_blocks[channel]) <= floor:
                    raise OutOfSpaceError(f"channel {channel} has no free blocks")
            block_idx = self._free_blocks[channel].pop(0)
            block = self.blocks[block_idx]
            block.state = BlockState.OPEN
            block.next_page = 0
            block.live.clear()
            self._open_block[channel] = block_idx
        block = self.blocks[block_idx]
        page_in_block = block.next_page
        block.next_page += 1
        if block.next_page >= self.geometry.pages_per_block:
            block.state = BlockState.FULL
            self._open_block[channel] = None
        return block_idx * self.geometry.pages_per_block + page_in_block

    def write(self, lpa: int, channel: Optional[int] = None, for_gc: bool = False) -> int:
        """Out-of-place update: map ``lpa`` to a freshly allocated page.

        Returns the new PPA.  The previous physical page (if any) becomes
        invalid.
        """
        if channel is None:
            channel = self.pick_write_channel()
        old = self._mapping.get(lpa)
        if old is not None:
            self._drop_live(old)
        ppa = self.allocate(channel, for_gc=for_gc)
        self._mapping[lpa] = ppa
        block = self.blocks[ppa // self.geometry.pages_per_block]
        block.live[ppa % self.geometry.pages_per_block] = lpa
        return ppa

    def relocate(self, lpa: int, channel: int) -> int:
        """GC relocation: channel-local and allowed to use the reserve."""
        return self.write(lpa, channel, for_gc=True)

    def trim(self, lpa: int) -> None:
        """Drop the mapping for ``lpa`` (page deleted / migrated away)."""
        old = self._mapping.pop(lpa, None)
        if old is not None:
            self._drop_live(old)

    def _drop_live(self, ppa: int) -> None:
        block = self.blocks[ppa // self.geometry.pages_per_block]
        block.live.pop(ppa % self.geometry.pages_per_block, None)

    # -- GC support -----------------------------------------------------------

    def victim_candidates(self, channel: int) -> List[Block]:
        """FULL blocks on ``channel``, i.e. eligible GC victims."""
        lo = channel * self.geometry.blocks_per_channel
        hi = lo + self.geometry.blocks_per_channel
        return [b for b in self.blocks[lo:hi] if b.state == BlockState.FULL]

    def select_victim(self, channel: int) -> Optional[Block]:
        """Greedy victim: the FULL block with the fewest valid pages."""
        candidates = self.victim_candidates(channel)
        if not candidates:
            return None
        return min(candidates, key=lambda b: (b.valid_count, b.index))

    def release_block(self, block: Block) -> None:
        """Return an erased block to its channel's free pool."""
        if block.live:
            raise ValueError("cannot release a block with live pages")
        block.state = BlockState.FREE
        block.next_page = 0
        channel = block.index // self.geometry.blocks_per_channel
        self._free_blocks[channel].append(block.index)

    # -- preconditioning --------------------------------------------------------

    #: Fraction of preconditioned blocks that are "cold" (low validity, the
    #: cheap GC victims an aged device accumulates) vs "hot" (nearly full).
    COLD_BLOCK_FRACTION = 0.25

    def precondition(
        self,
        logical_pages: int,
        target_free_blocks_per_channel: Optional[int] = None,
    ) -> None:
        """Age the device so GC triggers during the run (§VI-A).

        Maps ``logical_pages`` LPAs striped across channels into blocks
        with a *bimodal* validity distribution -- a quarter of the blocks
        are mostly dead (validity 0.3-0.7), the rest nearly full (0.9-1.0)
        -- which is what steady-state greedy GC leaves behind on a real
        drive.  Each channel is filled until only
        ``target_free_blocks_per_channel`` blocks (default ~5% of the
        channel) remain free, so moderate write activity pushes it over
        the GC threshold.
        """
        geo = self.geometry
        if target_free_blocks_per_channel is None:
            target_free_blocks_per_channel = max(3, geo.blocks_per_channel // 20)
        memo_key: Optional[tuple] = None
        if self._is_pristine():
            memo_key = (
                geo,
                self._seed,
                logical_pages,
                target_free_blocks_per_channel,
            )
            cached = _PRECONDITION_MEMO.get(memo_key)
            if cached is not None:
                self._restore_state(cached)
                return
        per_channel = [
            logical_pages // geo.channels
            + (1 if ch < logical_pages % geo.channels else 0)
            for ch in range(geo.channels)
        ]
        for ch in range(geo.channels):
            next_lpa = ch  # stripe: channel ch owns lpas ch, ch+C, ch+2C...
            remaining = per_channel[ch]
            while remaining > 0:
                free = len(self._free_blocks[ch])
                fill_room = max(0, free - target_free_blocks_per_channel)
                if fill_room == 0 or remaining >= int(
                    0.8 * fill_room * geo.pages_per_block
                ):
                    # Out of fill room: cram the rest as fully-valid pages.
                    validity = 1.0
                elif self._rng.random() < self.COLD_BLOCK_FRACTION:
                    validity = self._rng.uniform(0.3, 0.7)
                else:
                    validity = self._rng.uniform(0.9, 1.0)
                for _ in range(geo.pages_per_block):
                    if remaining > 0 and self._rng.random() < validity:
                        self.write(next_lpa, ch)
                        next_lpa += geo.channels
                        remaining -= 1
                    else:
                        try:
                            self.allocate(ch)  # dead page
                        except OutOfSpaceError:
                            break
        if memo_key is not None and not self._oos_hook_fired:
            while len(_PRECONDITION_MEMO) >= _PRECONDITION_MEMO_MAX:
                _PRECONDITION_MEMO.pop(next(iter(_PRECONDITION_MEMO)))
            _PRECONDITION_MEMO[memo_key] = self._snapshot_state()

    # -- preconditioning snapshots ------------------------------------------------

    def _is_pristine(self) -> bool:
        """True for a freshly-constructed FTL (nothing written/allocated),
        the only state a preconditioning snapshot may be taken from or
        restored into."""
        return (
            not self._mapping
            and self._next_channel == 0
            and all(b.state == BlockState.FREE for b in self.blocks)
        )

    def _snapshot_state(self) -> tuple:
        return (
            dict(self._mapping),
            [(b.state, b.next_page, dict(b.live)) for b in self.blocks],
            [list(f) for f in self._free_blocks],
            list(self._open_block),
            self._next_channel,
        )

    def _restore_state(self, state: tuple) -> None:
        mapping, blocks, free_blocks, open_block, next_channel = state
        self._mapping = dict(mapping)
        for block, (bstate, next_page, live) in zip(self.blocks, blocks):
            block.state = bstate
            block.next_page = next_page
            block.live = dict(live)
        self._free_blocks = [list(f) for f in free_blocks]
        self._open_block = list(open_block)
        self._next_channel = next_channel

    # -- integrity (used by tests) -----------------------------------------------

    def check_invariants(self) -> None:
        """Verify mapping/liveness bookkeeping is mutually consistent."""
        seen = {}
        for block in self.blocks:
            for page_in_block, lpa in block.live.items():
                ppa = block.index * self.geometry.pages_per_block + page_in_block
                if self._mapping.get(lpa) != ppa:
                    raise AssertionError(
                        f"live page {ppa} claims lpa {lpa} but mapping says "
                        f"{self._mapping.get(lpa)}"
                    )
                if lpa in seen:
                    raise AssertionError(f"lpa {lpa} live in two blocks")
                seen[lpa] = ppa
            if block.next_page > self.geometry.pages_per_block:
                raise AssertionError("block over-programmed")
        if len(seen) != len(self._mapping):
            raise AssertionError("mapping has entries without live pages")
