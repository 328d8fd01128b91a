"""Software thread contexts.

A :class:`ThreadContext` wraps one per-thread instruction trace and the
replay cursor the coordinated context switch needs: when a load triggers
the Long Delay Exception, its address is saved "such that when the thread
is switched back, it will resume from this instruction and re-issue this
memory access" (§III-A, step C4).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


#: One trace record: (instructions since previous memory op, is_write, addr).
TraceRecord = Tuple[int, bool, int]


@dataclass(slots=True)
class Window:
    """A ROB-bounded batch of work handed to the core model."""

    instructions: int
    ops: List[TraceRecord] = field(default_factory=list)


class ThreadContext:
    """One software thread replaying a memory trace."""

    def __init__(self, tid: int, trace: Sequence[TraceRecord]) -> None:
        self.tid = tid
        self.trace = trace
        self.pos = 0
        #: Memory op to re-issue first on resume (set on context switch).
        self.replay: Optional[TraceRecord] = None
        #: Wall time received on a core (CFS vruntime).
        self.runtime_ns = 0.0
        self.instructions_done = 0
        #: True right after a context switch brought this thread back:
        #: its first window replays the squashed access, and an immediate
        #: re-switch on the same access would ping-pong.
        self.just_resumed = False
        #: Trace-capture tap: called once per record the *first* time it
        #: is fetched from the trace (replays and re-fetches after a
        #: rewind are not re-reported), so a capture sees exactly the
        #: consumed stream in order.  ``python -m repro trace
        #: capture`` installs this.
        self.on_fetch: Optional[callable] = None
        #: Trace positions below this were already reported to the tap.
        self._tapped = 0
        #: Window plan (lazy): ``_plan[p]`` is the record count
        #: of the ROB/MSHR window starting at trace position ``p`` and
        #: ``_cum[i]`` the total gap instructions of records ``0..i-1``,
        #: both computed for the whole trace in one numpy pass so each
        #: ``next_window`` is two array lookups and a slice.
        self._plan: Optional[array] = None
        self._cum: Optional[array] = None
        self._plan_key: Optional[Tuple[int, int]] = None

    @property
    def done(self) -> bool:
        return self.pos >= len(self.trace) and self.replay is None

    @property
    def remaining_records(self) -> int:
        n = len(self.trace) - self.pos
        return n + (1 if self.replay is not None else 0)

    def next_window(self, max_instructions: int, max_ops: int) -> Optional[Window]:
        """Build the next ROB/MSHR-bounded window of records.

        Returns None when the trace is exhausted.  At least one record is
        always included so a record whose gap exceeds the ROB still makes
        progress.

        A window is sliced out of the trace with two lookups in the
        precomputed plan (see :meth:`_build_plan`), which fixes for
        *every* trace position how many records fit from there.
        Squashes rewind the cursor, and the window that replays a
        squashed op is cut from the same plan: the replay record (gap 0)
        first, then at most ``max_ops - 1`` trace records within the
        budget.
        """
        pos = self.pos
        trace = self.trace
        replay = self.replay
        if pos >= len(trace):
            if replay is None:
                # Exhausted: free the plan now.  A finished System is
                # cyclic garbage that lives until a full collection.
                self._plan = self._cum = self._plan_key = None
                return None
            self.replay = None
            return Window(0, [replay])
        if self._plan_key != (max_instructions, max_ops):
            self._build_plan(max_instructions, max_ops)
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
            for record in trace[max(pos, self._tapped):end]:
                self.on_fetch(record)
            self._tapped = end
        if replay is not None:
            ops = [replay]
            ops.extend(trace[pos:end])
            return Window(cum[end] - cum[pos], ops)
        return Window(cum[end] - cum[pos], list(trace[pos:end]))

    def _build_plan(self, max_instructions: int, max_ops: int) -> None:
        """One numpy pass over the whole trace.

        With ``G`` the gap prefix sums, record ``j`` fits a window
        starting at ``p`` exactly when ``G[j+1] - G[p] <=
        max_instructions`` (the ROB budget), so the
        unclamped window length at every position is one vectorized
        ``searchsorted(side="right")``; clamping to ``[1, max_ops]``
        applies the at-least-one-record rule and the MSHR bound.  The
        results are kept as ``array('q')``: indexing yields plain Python
        ints (per-window costs stay numpy-free and no ``np.int64`` can
        leak into stats accounting) at 8 bytes per record instead of one
        int object per prefix sum.
        """
        n = len(self.trace)
        gaps = np.fromiter((r[0] for r in self.trace), dtype=np.int64, count=n)
        cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(gaps, out=cum[1:])
        fit = (
            np.searchsorted(cum, cum[:n] + max_instructions, side="right")
            - 1
            - np.arange(n, dtype=np.int64)
        )
        self._plan = array("q", np.clip(fit, 1, max_ops).tobytes())
        self._cum = array("q", cum.tobytes())
        self._plan_key = (max_instructions, max_ops)

    def squash_after(self, index: int, window: Window) -> TraceRecord:
        """Context switch at the ``index``-th op of ``window``: that op is
        saved for replay (with its compute gap already consumed) and every
        later op goes back to the trace.  Returns the replay record.

        Every op after a window's first came from the trace in order, so
        the squashed ops are the trace slice just before ``pos`` and
        rewinding the cursor puts them back.
        """
        triggering = window.ops[index]
        # Its gap instructions were executed before the exception retired.
        self.replay = (0, triggering[1], triggering[2])
        self.pos -= len(window.ops) - index - 1
        return self.replay
