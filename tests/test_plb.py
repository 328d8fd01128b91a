"""Tests for the Promotion Look-aside Buffer."""

import pytest

from repro.host.plb import (
    PLB_ENTRIES,
    PLB_ENTRY_BYTES,
    PromotionLookasideBuffer,
)


class TestPLB:
    def test_paper_sizing(self):
        plb = PromotionLookasideBuffer()
        assert plb.capacity == PLB_ENTRIES == 64
        assert PLB_ENTRY_BYTES == 24  # 8B src + 8B dst + 8B bitmap
        assert plb.memory_bytes == 64 * 24

    def test_begin_and_lookup(self):
        plb = PromotionLookasideBuffer()
        entry = plb.begin(5, dst_frame=9)
        assert entry is not None
        assert plb.is_migrating(5)
        assert plb.lookup(5) is entry

    def test_duplicate_begin_rejected(self):
        plb = PromotionLookasideBuffer()
        plb.begin(5, 1)
        assert plb.begin(5, 2) is None

    def test_full_plb_rejects(self):
        plb = PromotionLookasideBuffer(entries=2)
        assert plb.begin(1, 0) is not None
        assert plb.begin(2, 0) is not None
        assert plb.begin(3, 0) is None
        assert plb.full

    def test_complete_frees_entry(self):
        plb = PromotionLookasideBuffer(entries=1)
        plb.begin(5, 0)
        entry = plb.complete(5)
        assert not entry.valid
        assert not plb.is_migrating(5)
        assert plb.begin(6, 0) is not None

    def test_complete_unknown_raises(self):
        plb = PromotionLookasideBuffer()
        with pytest.raises(KeyError):
            plb.complete(5)
