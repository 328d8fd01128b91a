"""Explicit flash-geometry arithmetic for the deep device model.

The flat model (:class:`repro.ssd.flash.FlashChannel`) treats a channel
as a pool of interchangeable dies and dispatches every command to the
earliest-free one.  The deep model instead routes each command to the
die and plane the page *physically* lives on, which requires decomposing
a dense physical page address (PPA) into its full coordinate tuple::

    (channel, die, plane, block_in_plane, page_in_block)

The dense layout is the one the rest of the simulator (FTL, compaction,
trace capture) already uses, channel-major::

    ppa = channel * pages_per_channel
        + block_in_channel * pages_per_block
        + page_in_block

with blocks of one channel laid out die-major then plane-major::

    block_in_channel = (die * planes_per_die + plane) * blocks_per_plane
                     + block_in_plane

so :meth:`GeometryModel.decompose` / :meth:`GeometryModel.compose` are a
strict refinement of :class:`~repro.ssd.flash.FlashArray`'s arithmetic:
``compose(decompose(ppa)) == ppa`` for every valid address, and the
channel/global-block of a PPA agree with the flat model's answers.

Derived counts are computed once and cached on the instance via the
``calc_and_cache`` idiom of wiscsee's flash config (compute every
derived quantity eagerly from the primitive fields, then treat the
object as read-only), so hot-path decomposition is plain integer
arithmetic on precomputed strides.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config import FlashGeometry, FlashTiming


class GeometryModel:
    """Cached derived geometry plus PPA coordinate arithmetic.

    Args:
        geometry: the primitive geometry (channels, chips, dies, planes,
            blocks, pages).
        timing: per-op flash latencies (tR / tProg / tErase); cached here
            so scheduler code has one object to consult.
    """

    def __init__(self, geometry: FlashGeometry, timing: FlashTiming) -> None:
        self.geometry = geometry
        self.timing = timing
        self._calc_and_cache()

    # -- derived values (wiscsee calc_and_cache idiom) -----------------------

    def _calc_and_cache(self) -> None:
        """Compute every derived count once from the primitive fields."""
        g = self.geometry
        self.channels = g.channels
        self.dies_per_channel = g.chips_per_channel * g.dies_per_chip
        self.planes_per_die = g.planes_per_die
        self.planes_per_channel = self.dies_per_channel * g.planes_per_die
        self.blocks_per_plane = g.blocks_per_plane
        self.blocks_per_die = g.planes_per_die * g.blocks_per_plane
        self.blocks_per_channel = self.dies_per_channel * self.blocks_per_die
        self.pages_per_block = g.pages_per_block
        self.pages_per_plane = g.blocks_per_plane * g.pages_per_block
        self.pages_per_die = self.blocks_per_die * g.pages_per_block
        self.pages_per_channel = self.blocks_per_channel * g.pages_per_block
        self.total_blocks = g.channels * self.blocks_per_channel
        self.total_pages = g.channels * self.pages_per_channel
        self.total_bytes = self.total_pages * g.page_size
        self.read_ns = self.timing.read_ns
        self.program_ns = self.timing.program_ns
        self.erase_ns = self.timing.erase_ns

    # -- coordinate arithmetic ------------------------------------------------

    def decompose(self, ppa: int) -> Tuple[int, int, int, int, int]:
        """``ppa`` -> ``(channel, die, plane, block_in_plane, page)``."""
        if not 0 <= ppa < self.total_pages:
            raise ValueError(f"ppa {ppa} out of range")
        channel, in_channel = divmod(ppa, self.pages_per_channel)
        die, in_die = divmod(in_channel, self.pages_per_die)
        plane, in_plane = divmod(in_die, self.pages_per_plane)
        block_in_plane, page = divmod(in_plane, self.pages_per_block)
        return channel, die, plane, block_in_plane, page

    def compose(
        self, channel: int, die: int, plane: int, block_in_plane: int, page: int
    ) -> int:
        """``(channel, die, plane, block_in_plane, page)`` -> ``ppa``."""
        if not 0 <= channel < self.channels:
            raise ValueError(f"channel {channel} out of range")
        if not 0 <= die < self.dies_per_channel:
            raise ValueError(f"die {die} out of range")
        if not 0 <= plane < self.planes_per_die:
            raise ValueError(f"plane {plane} out of range")
        if not 0 <= block_in_plane < self.blocks_per_plane:
            raise ValueError(f"block {block_in_plane} out of range")
        if not 0 <= page < self.pages_per_block:
            raise ValueError(f"page {page} out of range")
        return (
            channel * self.pages_per_channel
            + die * self.pages_per_die
            + plane * self.pages_per_plane
            + block_in_plane * self.pages_per_block
            + page
        )

    def to_dict(self) -> Dict[str, int]:
        """Derived counts as a plain dict (diagnostics / docs)."""
        return {
            "channels": self.channels,
            "dies_per_channel": self.dies_per_channel,
            "planes_per_die": self.planes_per_die,
            "blocks_per_plane": self.blocks_per_plane,
            "pages_per_block": self.pages_per_block,
            "pages_per_plane": self.pages_per_plane,
            "pages_per_die": self.pages_per_die,
            "pages_per_channel": self.pages_per_channel,
            "total_blocks": self.total_blocks,
            "total_pages": self.total_pages,
            "total_bytes": self.total_bytes,
        }
