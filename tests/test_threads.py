"""Tests for thread contexts and window building."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.host.threads import ThreadContext


def make_trace(n=10, gap=5):
    return [(gap, False, i * 4096) for i in range(n)]


def pack(record):
    """A record's packed op: windows carry ``(address << 1) | is_write``."""
    _gap, is_write, address = record
    return (address << 1) | is_write


def packed(window):
    """A reference window ``(instructions, records)`` in packed form."""
    instructions, ops = window
    return instructions, [pack(op) for op in ops]


class TestWindowBuilding:
    def test_window_bounded_by_ops(self):
        t = ThreadContext(0, make_trace(10))
        instructions, ops = t.next_window(max_instructions=1000, max_ops=4)
        assert len(ops) == 4
        assert instructions == 20

    def test_window_bounded_by_instructions(self):
        t = ThreadContext(0, make_trace(10, gap=100))
        instructions, ops = t.next_window(max_instructions=250, max_ops=8)
        assert len(ops) == 2
        assert instructions == 200

    def test_oversized_gap_still_progresses(self):
        t = ThreadContext(0, [(1000, False, 0)])
        _, ops = t.next_window(max_instructions=100, max_ops=8)
        assert len(ops) == 1

    def test_pushback_preserved_across_windows(self):
        t = ThreadContext(0, make_trace(5, gap=100))
        t.next_window(max_instructions=250, max_ops=8)  # takes 2
        _, ops = t.next_window(max_instructions=250, max_ops=8)
        assert ops[0] == pack((0, False, 2 * 4096))  # third, not skipped

    def test_exhaustion_returns_none(self):
        t = ThreadContext(0, make_trace(3))
        t.next_window(10_000, 8)
        assert t.next_window(10_000, 8) is None
        assert t.done


class TestSquashReplay:
    def test_squash_after_sets_replay(self):
        t = ThreadContext(0, make_trace(8))
        _, ops = t.next_window(10_000, 8)
        replay = t.squash_after(2, ops)
        # The triggering op replays as its packed op: no gap (its
        # compute already retired before the exception).
        assert replay == pack((0, False, 2 * 4096))
        assert not t.done

    def test_replay_comes_first_on_resume(self):
        t = ThreadContext(0, make_trace(8))
        _, ops = t.next_window(10_000, 8)
        t.squash_after(2, ops)
        _, ops = t.next_window(10_000, 8)
        assert ops[0] == pack((0, False, 2 * 4096))

    def test_younger_ops_pushed_back_intact(self):
        t = ThreadContext(0, make_trace(8))
        _, ops = t.next_window(10_000, 4)
        t.squash_after(1, ops)
        instructions, ops = t.next_window(10_000, 8)
        addrs = [op >> 1 for op in ops]
        # replay of op 1, then ops 2, 3 (squashed), then 4...
        assert addrs[:3] == [1 * 4096, 2 * 4096, 3 * 4096]
        # gaps of squashed ops are preserved (not re-zeroed); the replay
        # adds none.
        assert instructions == 5 * (len(ops) - 1)

    def test_no_record_lost_through_squash(self):
        t = ThreadContext(0, make_trace(20))
        seen = []
        while True:
            window = t.next_window(10_000, 4)
            if window is None:
                break
            _, ops = window
            if len(ops) >= 2 and len(seen) < 6:
                seen.extend(op >> 1 for op in ops[:1])
                t.squash_after(1, ops)
                seen.append(ops[1] >> 1)  # will replay later too
            else:
                seen.extend(op >> 1 for op in ops)
        # every address observed at least once
        assert {op[2] for op in make_trace(20)} <= set(seen)

    def test_done_accounts_for_replay(self):
        t = ThreadContext(0, make_trace(2))
        _, ops = t.next_window(10_000, 8)
        t.squash_after(0, ops)
        assert not t.done
        t.next_window(10_000, 8)
        assert t.done


class PushbackReference:
    """Reference window builder: records are fetched one at a time and a
    squash pushes the younger ops back onto a list, where
    :class:`ThreadContext` slices windows out of a precomputed plan and
    rewinds its cursor (and hands out packed ops)."""

    def __init__(self, trace):
        self.trace = trace
        self.pos = 0
        self.replay = None
        self.pushback = []

    @property
    def done(self):
        return (self.pos >= len(self.trace) and self.replay is None
                and not self.pushback)

    def _next_record(self):
        if self.replay is not None:
            record, self.replay = self.replay, None
            return record
        if self.pushback:
            return self.pushback.pop(0)
        if self.pos < len(self.trace):
            self.pos += 1
            return self.trace[self.pos - 1]
        return None

    def next_window(self, max_instructions, max_ops):
        instructions, ops = 0, []
        while len(ops) < max_ops:
            record = self._next_record()
            if record is None:
                break
            if ops and instructions + record[0] > max_instructions:
                self.pushback.insert(0, record)  # does not fit: next window
                break
            instructions += record[0]
            ops.append(record)
        return (instructions, ops) if ops else None

    def squash_after(self, index, ops):
        triggering = ops[index]
        self.replay = (0, triggering[1], triggering[2])
        self.pushback = list(ops[index + 1:]) + self.pushback
        return self.replay


def drive(thread, squashes, max_instructions, max_ops):
    """Fetch windows to exhaustion, squashing the ``k``-th window at op
    ``squashes[k] % len(ops)`` when ``squashes[k]`` is not None; returns
    the window sequence."""
    windows = []
    while True:
        window = thread.next_window(max_instructions, max_ops)
        if window is None:
            return windows
        instructions, ops = window
        windows.append((instructions, list(ops)))
        k = len(windows) - 1
        if k < len(squashes) and squashes[k] is not None:
            thread.squash_after(squashes[k] % len(ops), ops)


class TestCursorRewind:
    """:class:`ThreadContext` squashes by rewinding ``pos``; the reference
    pushes records back.  Both must hand the core the same windows."""

    @settings(max_examples=150, deadline=None)
    @given(
        gaps=st.lists(st.integers(0, 120), min_size=1, max_size=40),
        squashes=st.lists(st.one_of(st.none(), st.integers(0, 7)),
                          max_size=60),
        max_instructions=st.integers(1, 300),
        max_ops=st.integers(1, 8),
    )
    def test_rewind_matches_pushback_reference(
        self, gaps, squashes, max_instructions, max_ops
    ):
        trace = [(g, i % 3 == 0, i * 4096) for i, g in enumerate(gaps)]
        reference = PushbackReference(trace)
        rewound = ThreadContext(0, trace)
        expected = drive(reference, squashes, max_instructions, max_ops)
        assert drive(rewound, squashes, max_instructions, max_ops) == [
            packed(window) for window in expected]
        assert rewound.done and reference.done

    @settings(max_examples=100, deadline=None)
    @given(
        gaps=st.lists(st.integers(0, 120), min_size=1, max_size=40),
        squashes=st.lists(st.one_of(st.none(), st.integers(0, 7)),
                          max_size=60),
    )
    def test_capture_tap_sees_every_record_once(self, gaps, squashes):
        """The tap reports each window's slice past the records it
        already saw, so squashes and rewinds report nothing twice."""
        trace = [(g, False, i * 4096) for i, g in enumerate(gaps)]
        thread = ThreadContext(0, trace)
        seen = []
        thread.on_fetch = seen.append
        drive(thread, squashes, max_instructions=150, max_ops=4)
        assert seen == trace


class TestResumeWindow:
    """The window that replays a squashed op is cut from the window plan;
    the per-record reference builds it record by record."""

    @settings(max_examples=300, deadline=None)
    @given(
        gaps=st.lists(st.integers(0, 120), max_size=30),
        cut=st.integers(0, 40),
        max_instructions=st.integers(1, 300),
        max_ops=st.integers(1, 8),
    )
    # max_ops=1: the replay alone fills the window.
    @example(gaps=[5, 5, 5], cut=1, max_instructions=100, max_ops=1)
    # The first trace record after the replay exceeds the ROB budget.
    @example(gaps=[5, 400, 5], cut=1, max_instructions=100, max_ops=4)
    # The replay is the trace's last op.
    @example(gaps=[5, 5], cut=2, max_instructions=100, max_ops=4)
    def test_plan_resume_matches_per_record_loop(
        self, gaps, cut, max_instructions, max_ops
    ):
        trace = [(g, i % 3 == 0, i * 4096) for i, g in enumerate(gaps)]
        pos = cut % (len(trace) + 1)
        replay = (0, False, 999 * 4096)
        planned = ThreadContext(0, trace)
        looped = PushbackReference(trace)
        for thread in (planned, looped):
            thread.pos = pos
        planned.replay = pack(replay)
        looped.replay = replay
        got = planned.next_window(max_instructions, max_ops)
        want = looped.next_window(max_instructions, max_ops)
        assert (got[0], list(got[1])) == packed(want)
        assert got[1][0] == pack(replay)
        # A record that did not fit went back to the reference's list.
        assert (planned.pos, planned.replay) == (
            looped.pos - len(looped.pushback), looped.replay)
        # The plan stays in step afterwards.
        assert drive(planned, [], max_instructions, max_ops) == [
            packed(window)
            for window in drive(looped, [], max_instructions, max_ops)]
