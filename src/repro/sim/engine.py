"""Discrete-event simulation engine.

A minimal, deterministic event queue: events are ``(time, seq, callback)``
triples ordered by time then by insertion order, so simultaneous events run
in FIFO order and runs are reproducible.  Every component of the simulator
(flash channels, the SSD controller, CPU cores, the OS scheduler, migration
engines) schedules work through a single :class:`Engine`.
"""

from __future__ import annotations

import heapq
import math
import warnings
from typing import Callable, List, Optional, Tuple

#: Process-wide count of events executed by every :class:`Engine` in this
#: process.  perfbench samples it around a run to report events per pass;
#: it is never reset (callers diff two samples).
EVENTS_PROCESSED = 0


def events_processed() -> int:
    """Total events executed by all engines in this process so far."""
    return EVENTS_PROCESSED


class PastEventWarning(RuntimeWarning):
    """:meth:`Engine.schedule_at` was handed a time in the past (clamped).

    The warning text is deliberately constant: the ``warnings`` module
    deduplicates on (message, category, call site), so a tight sweep
    that clamps once per cell emits **one** line per offending call
    site per process instead of flooding distributed worker logs.
    Per-engine details live in :attr:`Engine.past_clamps` and
    :attr:`Engine.last_past_clamp`.
    """


class Engine:
    """A deterministic discrete-event simulator clock.

    ``Core._run_slice`` queues its next slice by pushing the key
    :meth:`schedule_at` would push straight onto ``_queue`` (see there).
    """

    #: Slack (ns) below ``now`` that :meth:`schedule_at` absorbs silently.
    #: Callers compute absolute completion times incrementally, so a few
    #: ulps of floating-point drift must not trip the past-time warning.
    PAST_TOLERANCE_NS = 1e-6

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._now = 0.0
        self._stopped = False
        #: Count of past-time schedule_at calls clamped on this engine.
        self.past_clamps = 0
        #: ``(when, now)`` of the most recent clamp, or None.
        self.last_past_clamp: Optional[Tuple[float, float]] = None
        #: Events executed by this engine across all :meth:`run` calls.
        self.processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` ns from now.

        Negative delays are clamped to zero (the event runs "now", after any
        events already queued for the current instant).
        """
        if delay < 0:
            delay = 0.0
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, callback))

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute time ``when``.

        Past-time semantics: a ``when`` strictly earlier than ``now`` (beyond
        :data:`PAST_TOLERANCE_NS` of floating-point slack) is **clamped to
        now** and a :class:`PastEventWarning` (a :class:`RuntimeWarning`) is
        emitted -- the callback still runs, at the current instant, after
        events already queued for it.  Scheduling in the past is almost
        always a caller bug (a completion time computed from stale state),
        so it is surfaced rather than silently absorbed, but clamping keeps
        long sweeps alive instead of aborting mid-simulation.  The warning
        is deduplicated per call site (constant message, see
        :class:`PastEventWarning`); every occurrence is still counted in
        :attr:`past_clamps` / :attr:`last_past_clamp`.
        """
        now = self._now
        if when < now - self.PAST_TOLERANCE_NS:
            self.past_clamps += 1
            self.last_past_clamp = (when, now)
            warnings.warn(
                "schedule_at received a time in the past; clamping to now "
                "(deduplicated per call site -- see Engine.past_clamps / "
                "Engine.last_past_clamp for details)",
                PastEventWarning,
                stacklevel=2,
            )
        # :meth:`schedule` inlined: the queued time stays ``now + (when -
        # now)``, which is not always ``when`` in floating point.
        delay = when - now
        if delay < 0:
            delay = 0.0
        self._seq += 1
        heapq.heappush(self._queue, (now + delay, self._seq, callback))

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulation time when the loop exited.

        One heap pop per event: the popped event runs unless its time is
        past ``until``, in which case it goes back on the heap (its
        ``(time, seq)`` key is unique, so the order is unchanged) and
        the clock stops at ``until``.  Events run strictly in
        ``(time, seq)`` order: scheduling never produces an event earlier
        than ``now`` (both :meth:`schedule` and :meth:`schedule_at`
        clamp), so an event a running callback queues for the current
        instant runs after every older same-time event.
        """
        self._stopped = False
        queue = self._queue
        pop = heapq.heappop
        limit = math.inf if until is None else until
        processed = 0
        try:
            while queue:
                event = pop(queue)
                when = event[0]
                if when > limit:
                    heapq.heappush(queue, event)
                    self._now = until
                    break
                self._now = when
                processed += 1
                event[2]()
                if self._stopped:
                    break
        finally:
            self._count(processed)
        return self._now

    def _count(self, processed: int) -> None:
        self.processed += processed
        global EVENTS_PROCESSED
        EVENTS_PROCESSED += processed

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        return self._queue[0][0] if self._queue else None

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)
