"""Tests for thread contexts and window building."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import scaled_config
from repro.cpu.core import Core
from repro.host.scheduler import Scheduler
from repro.host.threads import ThreadContext
from repro.sim.engine import Engine
from repro.sim.stats import SSD_READ_MISS, SimStats
from repro.ssd.interface import AccessResult


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


class WindowRecorder:
    """Stands in for the system under one :class:`Core`: it records
    every window the core issues and answers the ``k``-th with a
    ``SkyByte-Delay`` hint at op ``squashes[k] % len(ops)`` (``None``:
    the whole window retires).  ``counted`` holds ``stats.instructions``
    before each window, so its steps are each window's retired gaps."""

    switch_cost_ns = 0.0

    def __init__(self, squashes, max_ops):
        self.workload_mlp = max_ops
        self.stats = SimStats()
        self.squashes = squashes
        self.windows = []
        self.counted = []
        self.finished = []

    def window_access(self, ops, now, core_id, tid, just_resumed):
        k = len(self.windows)
        self.windows.append(list(ops))
        self.counted.append(self.stats.instructions)
        cut = self.squashes[k] if k < len(self.squashes) else None
        if cut is None:
            return [now + 1.0] * len(ops), None
        hint = AccessResult(complete_ns=now + 1.0,
                            request_class=SSD_READ_MISS, delay_hint=True,
                            hint_arrival_ns=now + 1.0)
        return [now + 1.0] * (cut % len(ops)), hint

    def on_thread_done(self, thread):
        self.finished.append(thread)


def drive_core(trace, squashes, max_instructions, max_ops, on_fetch=None):
    """Run ``trace`` to the end on one core under a :class:`WindowRecorder`;
    returns ``(instructions retired, packed ops)`` per window and the
    thread."""
    config = scaled_config(scale=512, threads=1).replace(cpu=dict(
        rob_entries=max_instructions, l1_mshrs=max_ops))
    engine = Engine()
    scheduler = Scheduler("RR")
    system = WindowRecorder(squashes, max_ops)
    thread = ThreadContext(0, trace)
    thread.on_fetch = on_fetch
    scheduler.enqueue(thread)
    Core(0, config, engine, scheduler, system).start()
    engine.run()
    assert system.finished == [thread]
    counted = system.counted + [system.stats.instructions]
    steps = [b - a for a, b in zip(counted, counted[1:])]
    return list(zip(steps, system.windows)), thread


class TestSquashReplay:
    """A hint squashes the window at the triggering op: the op replays
    first on resume and the younger ops go back to the trace."""

    def test_squash_after_sets_replay(self):
        windows, _ = drive_core(make_trace(8), [2], 10_000, 8)
        # The triggering op replays as its packed op: no gap (its
        # compute already retired before the exception).
        assert windows[1][1][0] == pack((0, False, 2 * 4096))
        assert windows[0][0] == 3 * 5  # ops 0..2 retired their gaps

    def test_replay_comes_first_on_resume(self):
        windows, _ = drive_core(make_trace(8), [2], 10_000, 8)
        assert [op >> 1 for op in windows[1][1]] == [
            i * 4096 for i in range(2, 8)]

    def test_younger_ops_pushed_back_intact(self):
        windows, _ = drive_core(make_trace(8), [1], 10_000, 4)
        instructions, ops = windows[1]
        addrs = [op >> 1 for op in ops]
        # replay of op 1, then ops 2, 3 (squashed), then 4...
        assert addrs[:3] == [1 * 4096, 2 * 4096, 3 * 4096]
        # gaps of squashed ops are preserved (not re-zeroed); the replay
        # adds none.
        assert instructions == 5 * (len(ops) - 1)

    def test_no_record_lost_through_squash(self):
        trace = make_trace(20)
        windows, _ = drive_core(trace, [1, 0, 3, None, 2, 1], 10_000, 4)
        seen = {op >> 1 for _, ops in windows for op in ops}
        assert {record[2] for record in trace} <= seen
        # every gap retires exactly once
        assert sum(step for step, _ in windows) == sum(r[0] for r in trace)

    def test_done_accounts_for_replay(self):
        windows, thread = drive_core(make_trace(2), [0], 10_000, 8)
        # The squash at op 0 rewinds past op 1: both run again.
        assert [ops for _, ops in windows] == [
            [pack(r) for r in make_trace(2)]] * 2
        assert thread.done


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


def drive(reference, squashes, max_instructions, max_ops):
    """Fetch the reference's windows to exhaustion, squashing the
    ``k``-th window at op ``squashes[k] % len(ops)`` when ``squashes[k]``
    is not None; returns ``(instructions retired, packed ops)`` per
    window, where a squashed window retires the gaps of its ops up to
    the trigger."""
    windows = []
    while True:
        window = reference.next_window(max_instructions, max_ops)
        if window is None:
            return windows
        instructions, ops = window
        k = len(windows)
        if k < len(squashes) and squashes[k] is not None:
            index = squashes[k] % len(ops)
            instructions = sum(op[0] for op in ops[:index + 1])
            reference.squash_after(index, ops)
        windows.append((instructions, [pack(op) for op in ops]))


def fetch_all(thread, max_instructions, max_ops):
    """:meth:`ThreadContext.next_window` to exhaustion."""
    windows = []
    while True:
        window = thread.next_window(max_instructions, max_ops)
        if window is None:
            return windows
        windows.append((window[0], list(window[1])))


class TestCursorRewind:
    """The core squashes by rewinding the thread's ``pos`` and cuts the
    replay window from the trace's window plan; the reference pushes
    records back and builds every window record by record.  Both must
    issue the same windows and retire the same instructions."""

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
        expected = drive(reference, squashes, max_instructions, max_ops)
        got, rewound = drive_core(trace, squashes, max_instructions, max_ops)
        assert got == expected
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
        seen = []
        tapped, _ = drive_core(trace, squashes, 150, 4, on_fetch=seen.append)
        assert seen == trace
        # The tap moves every window to ``next_window``; the windows are
        # the ones the core cuts from the plan without it.
        assert tapped == drive_core(trace, squashes, 150, 4)[0]


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
        assert fetch_all(planned, max_instructions, max_ops) == [
            packed(window)
            for window in fetch_all(looped, max_instructions, max_ops)]
