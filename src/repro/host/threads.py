"""Software thread contexts.

A :class:`ThreadContext` wraps one per-thread instruction trace and the
replay cursor the coordinated context switch needs: when a load triggers
the Long Delay Exception, the core saves its op in ``replay`` "such that
when the thread is switched back, it will resume from this instruction
and re-issue this memory access" (§III-A, step C4), and rewinds ``pos``
over the squashed younger ops.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence, Tuple, Union

from repro.workloads.trace import Trace, TraceRecord


class ThreadContext:
    """One software thread replaying a memory trace.

    ``trace`` is a :class:`~repro.workloads.trace.Trace` or a list of
    ``(gap, is_write, address)`` records, converted (and validated) once
    here.  Windows hand the core packed ops (``(address << 1) |
    is_write``); a window's instructions come from the trace's gap
    prefix sums.
    """

    def __init__(
        self, tid: int, trace: Union[Trace, Sequence[TraceRecord]]
    ) -> None:
        if not isinstance(trace, Trace):
            trace = Trace.from_records(trace, tid)
        self.tid = tid
        self.trace = trace
        #: The trace's packed ops and gap prefix sums (shared, not copied).
        self._ops = trace.ops
        self._cum = trace.cum
        self.pos = 0
        #: Packed op to re-issue first on resume (set on context switch);
        #: a replayed op has gap 0.
        self.replay: Optional[int] = None
        #: Wall time received on a core (CFS vruntime).
        self.runtime_ns = 0.0
        #: True right after a context switch brought this thread back:
        #: its first window replays the squashed access, and an immediate
        #: re-switch on the same access would ping-pong.
        self.just_resumed = False
        #: Trace-capture tap: called with the ``(gap, is_write, address)``
        #: record the *first* time it is fetched from the trace (replays
        #: and re-fetches after a rewind are not re-reported), so a
        #: capture sees exactly the consumed stream in order.  ``python
        #: -m repro trace capture`` installs this.
        self.on_fetch: Optional[callable] = None
        #: Trace positions below this were already reported to the tap.
        self._tapped = 0
        #: Window plan of the trace for ``_plan_key`` (cached on the
        #: trace, see :meth:`Trace.plan`): ``_plan[p]`` is the record
        #: count of the ROB/MSHR window starting at trace position ``p``,
        #: so with the prefix sums a window is two array lookups and a
        #: slice.  Once it is fetched, the core cuts every window without
        #: a tap from them itself.
        self._plan: Optional[array] = None
        self._plan_key: Optional[Tuple[int, int]] = None

    @property
    def done(self) -> bool:
        return self.pos >= len(self._ops) and self.replay is None

    def next_window(
        self, max_instructions: int, max_ops: int
    ) -> Optional[Tuple[int, Sequence[int]]]:
        """Build the next ROB/MSHR-bounded window as ``(gap instructions,
        packed ops)``.

        Returns None when the trace is exhausted.  At least one record is
        always included so a record whose gap exceeds the ROB still makes
        progress.

        A window is sliced out of the trace with two lookups in the
        trace's window plan (:meth:`Trace.plan`), which fixes for
        *every* trace position how many records fit from there.  Squashes
        rewind the cursor, and the window that replays a squashed op is
        cut from the same plan: the replay op (gap 0) first, then at most
        ``max_ops - 1`` trace records within the budget.  Once the plan
        is fetched, the core cuts both kinds of window itself
        (:meth:`Core._run_slice <repro.cpu.core.Core._run_slice>`, with
        the same rules) and calls this for the rest: the first window, a
        capture tap and exhaustion.
        """
        pos = self.pos
        ops = self._ops
        replay = self.replay
        if pos >= len(ops):
            if replay is None:
                return None
            self.replay = None
            return 0, [replay]
        if self._plan_key != (max_instructions, max_ops):
            self._plan = self.trace.plan(max_instructions, max_ops)
            self._plan_key = (max_instructions, max_ops)
        take = self._plan[pos]
        cum = self._cum
        if replay is not None:
            # The replay fills one op slot and none of the budget; the
            # plan's at-least-one clamp does not apply after it.
            self.replay = None
            if take >= max_ops:
                take = max_ops - 1
            elif take == 1 and cum[pos + 1] - cum[pos] > max_instructions:
                take = 0
        end = pos + take
        self.pos = end
        if self.on_fetch is not None and end > self._tapped:
            for record in self.trace.records(max(pos, self._tapped), end):
                self.on_fetch(record)
            self._tapped = end
        if replay is not None:
            window = [replay]
            window.extend(ops[pos:end])
            return cum[end] - cum[pos], window
        return cum[end] - cum[pos], ops[pos:end]
