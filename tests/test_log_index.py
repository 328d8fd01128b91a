"""Tests for the two-level hash log index (Fig. 12)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.log_index import (
    FIRST_LEVEL_ENTRY_BYTES,
    LogIndex,
    SECOND_LEVEL_ENTRY_BYTES,
    SECOND_LEVEL_INITIAL_SLOTS,
    SECOND_LEVEL_LOAD_FACTOR,
    SecondLevelTable,
)


class TestSecondLevelTable:
    def test_starts_with_four_slots(self):
        t = SecondLevelTable()
        assert t.slots == SECOND_LEVEL_INITIAL_SLOTS

    def test_doubles_past_load_factor(self):
        t = SecondLevelTable()
        for i in range(4):
            t.insert(i, i)
        # 4 entries > 4*0.75 -> doubled (possibly twice).
        assert t.slots >= 8

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 7)),
                        max_size=40))
    # Four inserts double the slots; removes and a re-insert keep them.
    @example(ops=[(True, 0), (True, 1), (True, 2), (True, 3), (False, 0),
                  (False, 1), (True, 1)])
    def test_slots_match_per_insert_doubling(self, ops):
        """Slots derived from the peak entry count equal those of a table
        that re-checks its load factor on every insert."""
        t = SecondLevelTable()
        slots = SECOND_LEVEL_INITIAL_SLOTS
        for is_insert, line in ops:
            if is_insert:
                t.insert(line, 0)
                while len(t.entries) > slots * SECOND_LEVEL_LOAD_FACTOR:
                    slots *= 2
            else:
                t.remove(line)
            assert t.slots == slots

    def test_memory_bytes_tracks_slots(self):
        t = SecondLevelTable()
        assert t.memory_bytes == 4 * SECOND_LEVEL_ENTRY_BYTES
        for i in range(10):
            t.insert(i, i)
        assert t.memory_bytes == t.slots * SECOND_LEVEL_ENTRY_BYTES


class TestLogIndex:
    def test_insert_lookup(self):
        idx = LogIndex()
        idx.insert(10, 3, 77)
        assert idx.lookup(10, 3) == 77
        assert idx.lookup(10, 4) is None
        assert idx.lookup(11, 3) is None

    def test_replace_reports_coalescing(self):
        idx = LogIndex()
        assert idx.insert(10, 3, 1) is False
        assert idx.insert(10, 3, 2) is True  # newer write to same line
        assert idx.lookup(10, 3) == 2
        assert len(idx) == 1

    def test_line_mask_follows_inserts_and_removes(self):
        idx = LogIndex()
        idx.insert(5, 0, 100)
        idx.insert(5, 7, 101)
        idx.insert(5, 7, 102)  # coalesced: same line
        assert idx.line_mask(5) == (1 << 0) | (1 << 7)
        assert idx.line_mask(6) == 0
        idx._first[5].remove(0)
        assert idx.line_mask(5) == 1 << 7
        idx.remove_page(5)
        assert idx.line_mask(5) == 0

    def test_lines_for_page_groups_by_page(self):
        """Compaction's one-table traversal (the point of two levels)."""
        idx = LogIndex()
        idx.insert(5, 0, 100)
        idx.insert(5, 7, 101)
        idx.insert(6, 0, 102)
        assert idx.lines_for_page(5) == {0: 100, 7: 101}
        assert idx.lines_for_page(6) == {0: 102}
        assert idx.lines_for_page(7) == {}

    def test_remove_page_invalidates(self):
        idx = LogIndex()
        idx.insert(5, 0, 1)
        idx.insert(5, 1, 2)
        dropped = idx.remove_page(5)
        assert dropped == 2
        assert not idx.has_page(5)
        assert len(idx) == 0

    def test_line_offset_validated(self):
        idx = LogIndex()
        with pytest.raises(ValueError):
            idx.insert(0, 64, 0)
        with pytest.raises(ValueError):
            idx.insert(0, -1, 0)

    def test_pages_iteration(self):
        idx = LogIndex()
        for page in (3, 1, 2):
            idx.insert(page, 0, page)
        assert sorted(idx.pages()) == [1, 2, 3]

    def test_clear(self):
        idx = LogIndex()
        idx.insert(1, 1, 1)
        idx.clear()
        assert len(idx) == 0
        assert idx.memory_bytes == 0


class TestMemoryModel:
    def test_single_page_single_line(self):
        idx = LogIndex()
        idx.insert(0, 0, 0)
        expected = FIRST_LEVEL_ENTRY_BYTES + 4 * SECOND_LEVEL_ENTRY_BYTES
        assert idx.memory_bytes == expected

    def test_worst_case_bound_from_paper(self):
        """Paper (§III-B): 1M single-line pages cost ~32 MB with resizing
        (16 B first-level + 16 B initial second-level each)."""
        per_page = FIRST_LEVEL_ENTRY_BYTES + 4 * SECOND_LEVEL_ENTRY_BYTES
        assert per_page == 32
        assert 1_000_000 * per_page == pytest.approx(32e6, rel=0.05)

    def test_memory_grows_with_density(self):
        sparse = LogIndex()
        dense = LogIndex()
        for page in range(8):
            sparse.insert(page, 0, page)
        for line in range(8):
            dense.insert(0, line, line)
        # Dense page resizes its second level; sparse pays per-page.
        assert sparse.memory_bytes > dense.memory_bytes


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 63), st.integers(0, 1023)),
        min_size=1,
        max_size=120,
    )
)
def test_index_matches_dict_model(entries):
    """Property: the two-level index behaves like a plain dict keyed by
    (page, line) with last-write-wins."""
    idx = LogIndex()
    model = {}
    for page, line, pos in entries:
        idx.insert(page, line, pos)
        model[(page, line)] = pos
    for (page, line), pos in model.items():
        assert idx.lookup(page, line) == pos
    assert len(idx) == len(model)
    pages = {page for page, _ in model}
    assert set(idx.pages()) == pages
