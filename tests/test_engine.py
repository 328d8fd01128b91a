"""Tests for the discrete-event engine."""

import heapq
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine, PastEventWarning


def test_events_run_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(30, lambda: order.append("c"))
    engine.schedule(10, lambda: order.append("a"))
    engine.schedule(20, lambda: order.append("b"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_run_fifo():
    engine = Engine()
    order = []
    for i in range(10):
        engine.schedule(5.0, lambda i=i: order.append(i))
    engine.run()
    assert order == list(range(10))


def test_now_advances_to_event_time():
    engine = Engine()
    seen = []
    engine.schedule(42.5, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [42.5]
    assert engine.now == 42.5


def test_negative_delay_clamped_to_now():
    engine = Engine()
    engine.schedule(10, lambda: engine.schedule(-5, lambda: None))
    end = engine.run()
    assert end == 10


def test_schedule_at_absolute_time():
    engine = Engine()
    seen = []
    engine.schedule_at(100.0, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [100.0]


def test_schedule_at_past_warns_and_clamps():
    engine = Engine()
    seen = []

    def late():
        # now == 10; scheduling at t=3 is strictly in the past.
        with pytest.warns(RuntimeWarning, match="past"):
            engine.schedule_at(3.0, lambda: seen.append(engine.now))

    engine.schedule(10, late)
    end = engine.run()
    # The callback still runs, clamped to the scheduling instant.
    assert seen == [10.0]
    assert end == 10.0


def test_past_warning_deduplicated_per_call_site():
    """Tight sweeps clamp once per cell; the warning must not flood the
    logs -- the ``warnings`` registry dedups the constant message per
    call site, while Engine.past_clamps still counts every occurrence."""
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")  # stdlib per-call-site dedup
        for _ in range(5):
            engine.schedule_at(1.0, lambda: None)  # one source line
    assert len(caught) == 1
    assert issubclass(caught[0].category, PastEventWarning)
    assert engine.past_clamps == 5
    assert engine.last_past_clamp == (1.0, 10.0)


def test_past_warning_is_a_runtime_warning():
    # Existing filters/tests keyed on RuntimeWarning keep working.
    assert issubclass(PastEventWarning, RuntimeWarning)


def test_schedule_at_now_or_future_does_not_warn():
    engine = Engine()
    fired = []

    def on_time():
        engine.schedule_at(engine.now, lambda: fired.append("now"))
        engine.schedule_at(engine.now + 5, lambda: fired.append("later"))

    engine.schedule(10, on_time)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        engine.run()
    assert fired == ["now", "later"]


def test_schedule_at_tolerates_float_drift():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # Within PAST_TOLERANCE_NS of now: treated as rounding, not a bug.
        engine.schedule_at(engine.now - Engine.PAST_TOLERANCE_NS / 2,
                           lambda: None)


def test_run_until_stops_at_boundary():
    engine = Engine()
    fired = []
    engine.schedule(10, lambda: fired.append(1))
    engine.schedule(50, lambda: fired.append(2))
    engine.run(until=20)
    assert fired == [1]
    assert engine.now == 20
    assert engine.pending() == 1


def test_run_resumes_after_until():
    engine = Engine()
    fired = []
    engine.schedule(10, lambda: fired.append(1))
    engine.schedule(50, lambda: fired.append(2))
    engine.run(until=20)
    engine.run()
    assert fired == [1, 2]


def test_stop_halts_processing():
    engine = Engine()
    fired = []

    def first():
        fired.append(1)
        engine.stop()

    engine.schedule(1, first)
    engine.schedule(2, lambda: fired.append(2))
    engine.run()
    assert fired == [1]
    assert engine.pending() == 1


def test_events_scheduled_during_run_execute():
    engine = Engine()
    order = []

    def outer():
        order.append("outer")
        engine.schedule(5, lambda: order.append("inner"))

    engine.schedule(1, outer)
    engine.run()
    assert order == ["outer", "inner"]
    assert engine.now == 6


def test_peek_returns_next_event_time():
    engine = Engine()
    assert engine.peek() is None
    engine.schedule(7, lambda: None)
    engine.schedule(3, lambda: None)
    assert engine.peek() == 3


def test_empty_run_returns_current_time():
    engine = Engine()
    assert engine.run() == 0.0


def test_determinism_across_instances():
    def build():
        engine = Engine()
        log = []
        engine.schedule(2, lambda: log.append("x"))
        engine.schedule(2, lambda: log.append("y"))
        engine.schedule(1, lambda: engine.schedule(1, lambda: log.append("z")))
        engine.run()
        return log

    assert build() == build()


# -- same-epoch coalescing: FIFO ordering property ---------------------------
#
# The batched run loop drains every event queued for one timestamp in a
# single inner loop.  The property it must preserve: events with equal
# timestamps execute strictly in insertion order, *including* events a
# running callback schedules for the current instant (they join the same
# batch after every older same-time event).  A one-pop-per-event heap
# loop is the reference semantics; any divergence is a bug.

_event_plan = st.lists(
    st.tuples(
        # Few distinct timestamps so collisions are the common case.
        st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.0, 5.0]),
        # Whether the callback spawns a child at the same instant.
        st.booleans(),
    ),
    min_size=1,
    max_size=30,
)


class _OnePopEngine:
    """Reference event loop: one heap pop per event, in (time, seq)
    order."""

    def __init__(self):
        self._queue = []
        self._seq = 0
        self.now = 0.0

    def schedule(self, delay, callback):
        self._seq += 1
        heapq.heappush(self._queue,
                       (self.now + max(delay, 0.0), self._seq, callback))

    def run(self):
        while self._queue:
            self.now, _seq, callback = heapq.heappop(self._queue)
            callback()


def _execute(plan, engine_cls=Engine):
    engine = engine_cls()
    order = []
    tags = iter(range(10_000))

    def make(tag, spawn):
        def callback():
            order.append((engine.now, tag))
            if spawn:
                engine.schedule(0.0, make(next(tags), False))
        return callback

    for delay, spawn in plan:
        engine.schedule(delay, make(next(tags), spawn))
    engine.run()
    return order


@settings(max_examples=200, deadline=None)
@given(_event_plan)
def test_coalesced_batches_preserve_same_timestamp_fifo(plan):
    order = _execute(plan)
    # Time never goes backwards, and within one timestamp the insertion
    # order (tags are handed out in schedule() call order) is preserved.
    times = [t for t, _tag in order]
    assert times == sorted(times)
    by_time = {}
    for t, tag in order:
        by_time.setdefault(t, []).append(tag)
    for t, tags_at_t in by_time.items():
        assert tags_at_t == sorted(tags_at_t), (
            f"same-timestamp FIFO violated at t={t}: {tags_at_t}"
        )


@settings(max_examples=200, deadline=None)
@given(_event_plan)
def test_coalesced_run_matches_scalar_reference(plan):
    assert _execute(plan) == _execute(plan, _OnePopEngine)
