"""Tests for thread contexts and window building."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.host.threads import ThreadContext, Window


def make_trace(n=10, gap=5):
    return [(gap, False, i * 4096) for i in range(n)]


class TestWindowBuilding:
    def test_window_bounded_by_ops(self):
        t = ThreadContext(0, make_trace(10))
        window = t.next_window(max_instructions=1000, max_ops=4)
        assert len(window.ops) == 4
        assert window.instructions == 20

    def test_window_bounded_by_instructions(self):
        t = ThreadContext(0, make_trace(10, gap=100))
        window = t.next_window(max_instructions=250, max_ops=8)
        assert len(window.ops) == 2
        assert window.instructions == 200

    def test_oversized_gap_still_progresses(self):
        t = ThreadContext(0, [(1000, False, 0)])
        window = t.next_window(max_instructions=100, max_ops=8)
        assert len(window.ops) == 1

    def test_pushback_preserved_across_windows(self):
        t = ThreadContext(0, make_trace(5, gap=100))
        t.next_window(max_instructions=250, max_ops=8)  # takes 2
        w2 = t.next_window(max_instructions=250, max_ops=8)
        assert w2.ops[0][2] == 2 * 4096  # third record, not skipped

    def test_exhaustion_returns_none(self):
        t = ThreadContext(0, make_trace(3))
        t.next_window(10_000, 8)
        assert t.next_window(10_000, 8) is None
        assert t.done

    def test_remaining_records(self):
        t = ThreadContext(0, make_trace(6))
        assert t.remaining_records == 6
        t.next_window(10_000, 4)
        assert t.remaining_records == 2


class TestSquashReplay:
    def test_squash_after_sets_replay(self):
        t = ThreadContext(0, make_trace(8))
        window = t.next_window(10_000, 8)
        replay = t.squash_after(2, window)
        # The triggering op replays with a zero gap (its compute already
        # retired before the exception).
        assert replay == (0, False, 2 * 4096)
        assert not t.done

    def test_replay_comes_first_on_resume(self):
        t = ThreadContext(0, make_trace(8))
        window = t.next_window(10_000, 8)
        t.squash_after(2, window)
        w2 = t.next_window(10_000, 8)
        assert w2.ops[0] == (0, False, 2 * 4096)

    def test_younger_ops_pushed_back_intact(self):
        t = ThreadContext(0, make_trace(8))
        window = t.next_window(10_000, 4)
        t.squash_after(1, window)
        w2 = t.next_window(10_000, 8)
        addrs = [op[2] for op in w2.ops]
        # replay of op 1, then ops 2, 3 (squashed), then 4...
        assert addrs[:3] == [1 * 4096, 2 * 4096, 3 * 4096]
        # gaps of squashed ops are preserved (not re-zeroed).
        assert w2.ops[1][0] == 5

    def test_no_record_lost_through_squash(self):
        t = ThreadContext(0, make_trace(20))
        seen = []
        while True:
            w = t.next_window(10_000, 4)
            if w is None:
                break
            if len(w.ops) >= 2 and len(seen) < 6:
                seen.extend(op[2] for op in w.ops[:1])
                t.squash_after(1, w)
                seen.append(w.ops[1][2])  # will replay later too
            else:
                seen.extend(op[2] for op in w.ops)
        # every address observed at least once
        assert {op[2] for op in make_trace(20)} <= set(seen)

    def test_done_accounts_for_replay(self):
        t = ThreadContext(0, make_trace(2))
        w = t.next_window(10_000, 8)
        t.squash_after(0, w)
        assert not t.done
        t.next_window(10_000, 8)
        assert t.done


class PushbackReference:
    """Reference window builder: records are fetched one at a time and a
    squash pushes the younger ops back onto a list, where
    :class:`ThreadContext` slices windows out of a precomputed plan and
    rewinds its cursor."""

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
        window = Window(instructions=0)
        while len(window.ops) < max_ops:
            record = self._next_record()
            if record is None:
                break
            if window.ops and window.instructions + record[0] > max_instructions:
                self.pushback.insert(0, record)  # does not fit: next window
                break
            window.instructions += record[0]
            window.ops.append(record)
        return window if window.ops else None

    def squash_after(self, index, window):
        triggering = window.ops[index]
        self.replay = (0, triggering[1], triggering[2])
        self.pushback = list(window.ops[index + 1:]) + self.pushback
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
        windows.append((window.instructions, list(window.ops)))
        k = len(windows) - 1
        if k < len(squashes) and squashes[k] is not None:
            thread.squash_after(squashes[k] % len(window.ops), window)


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
        assert drive(rewound, squashes, max_instructions, max_ops) == expected
        assert rewound.done and reference.done
        assert rewound.remaining_records == 0

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
            thread.replay = replay
        got = planned.next_window(max_instructions, max_ops)
        want = looped.next_window(max_instructions, max_ops)
        assert (got.instructions, got.ops) == (want.instructions, want.ops)
        assert got.ops[0] == replay
        # A record that did not fit went back to the reference's list.
        assert (planned.pos, planned.replay) == (
            looped.pos - len(looped.pushback), looped.replay)
        # The plan stays in step afterwards.
        assert drive(planned, [], max_instructions, max_ops) == drive(
            looped, [], max_instructions, max_ops
        )
