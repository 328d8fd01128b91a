"""Tests for the double-buffered cacheline write log."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.write_log import LogBuffer, WriteLog
from repro.core.log_index import LogIndex


class TestLogBuffer:
    def test_append_returns_positions(self):
        buf = LogBuffer(4, LogIndex)
        assert buf.append(1, 0) == 0
        assert buf.append(1, 1) == 1
        assert buf.used == 2

    def test_full_rejects_append(self):
        buf = LogBuffer(2, LogIndex)
        buf.append(0, 0)
        buf.append(0, 1)
        assert buf.full
        with pytest.raises(RuntimeError):
            buf.append(0, 2)

    def test_reset_reclaims(self):
        buf = LogBuffer(2, LogIndex)
        buf.append(0, 0)
        gen = buf.generation
        buf.reset()
        assert buf.empty
        assert buf.generation == gen + 1
        assert len(buf.index) == 0


class TestWriteLog:
    def test_capacity_split_between_buffers(self):
        log = WriteLog(100)
        assert log.active.capacity == 50
        assert log.standby.capacity == 50

    def test_append_fills_active(self):
        log = WriteLog(4)
        assert log.append(0, 0) is False
        assert log.append(0, 1) is True  # active (2 entries) now full
        assert log.active.full

    def test_coalesced_appends_counted(self):
        log = WriteLog(8)
        log.append(1, 5)
        log.append(1, 5)
        assert log.coalesced_appends == 1
        assert log.total_appends == 2

    def test_lookup_prefers_active_buffer(self):
        log = WriteLog(8)
        log.append(1, 5)  # goes to buffer A
        log.append(9, 0)
        log.append(9, 1)
        log.append(9, 2)  # A full
        log.swap()
        pos_old = log.standby.index.lookup(1, 5)
        log.append(1, 5)  # newer copy in the new active buffer
        pos_new = log.lookup(1, 5)
        assert pos_new == log.active.index.lookup(1, 5)
        assert pos_old is not None

    def test_lookup_falls_back_to_draining_buffer(self):
        log = WriteLog(8)
        for i in range(4):
            log.append(i, 0)
        log.swap()
        assert log.has_line(2, 0)
        assert log.lookup(2, 0) is not None

    def test_swap_requires_empty_standby(self):
        log = WriteLog(8)
        for i in range(4):
            log.append(i, 0)
        drained = log.swap()
        assert drained.draining
        for i in range(4):
            log.append(10 + i, 0)
        assert not log.can_swap()
        with pytest.raises(RuntimeError):
            log.swap()
        drained.reset()
        assert log.can_swap()

    def test_line_mask_merges_buffers(self):
        log = WriteLog(8)
        log.append(5, 0)
        log.append(5, 1)
        log.append(0, 0)
        log.append(0, 1)
        log.swap()
        log.append(5, 2)
        assert log.line_mask(5) == 0b111
        assert log.line_mask(6) == 0

    def test_remove_page_hits_both_buffers(self):
        log = WriteLog(8)
        log.append(5, 0)
        for i in range(3):
            log.append(i, 0)
        log.swap()
        log.append(5, 1)
        dropped = log.remove_page(5)
        assert dropped == 2
        assert not log.has_page(5)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 7)),
        min_size=1,
        max_size=30,
    )
)
def test_latest_write_wins_property(writes):
    """Property: for any write sequence that fits without a swap, lookup
    returns the offset of the *last* write to each (page, line)."""
    log = WriteLog(len(writes) * 2 + 4)
    last_pos = {}
    for page, line in writes:
        log.append(page, line)
        # position of this append within the active buffer:
        last_pos[(page, line)] = log.active.index.lookup(page, line)
    for (page, line), pos in last_pos.items():
        assert log.lookup(page, line) == pos
