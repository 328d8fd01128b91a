"""Trace record format and the compact in-memory trace.

A trace is a sequence of ``(gap, is_write, address)`` records: the thread
executes ``gap`` non-memory instructions, then issues one 64 B memory
access at ``address``.  This is the LLC-miss-stream level of detail the
fast interval model replays (on-chip cache hits are folded into the gap /
IPC term), the same level at which the paper's Table I characterises its
workloads via LLC MPKI.

That tuple is the *exchange* form: what ``.sbt`` files encode
(:mod:`repro.scenarios.tracefile`), what the capture tap reports, and
what cold readers (the motivation replays, the detailed-mode filter,
tests) iterate.  In memory every thread's trace is a :class:`Trace`:
one packed int64 per record, ``(address << 1) | is_write``, plus the gap
prefix sums the window plan is cut from.  A record costs 16 bytes there
instead of a tuple and three int objects, which is what lets the
runner's trace memo keep a sweep's traces.
"""

from __future__ import annotations

import operator
from array import array
from itertools import accumulate
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

TraceRecord = Tuple[int, bool, int]

#: Largest address a packed op holds: ``(address << 1) | 1`` must fit a
#: signed 64-bit int.
MAX_ADDRESS = (1 << 62) - 1
#: Largest gap total of one trace: the window plan adds the ROB budget
#: to the prefix sums in int64.
MAX_GAP_TOTAL = 1 << 62


class TraceFormatError(ValueError):
    """A persisted trace is malformed, truncated, or mis-ordered.

    Raised instead of silently replaying a prefix: a short read on a
    trace file must fail loudly, or every downstream stat is quietly
    computed over the wrong workload.
    """


class Trace:
    """One thread's trace in compact form.

    ``ops[i]`` is record ``i`` packed as ``(address << 1) | is_write``, so
    ``op >> 13`` is its page, ``(op >> 7) & 0x3F`` its line and ``op & 1``
    its direction; ``cum[i]`` is the total gap of records ``0..i-1``
    (``len(cum) == len(ops) + 1``).  Both are ``array('q')``: indexing
    yields plain Python ints.  A trace is never mutated once built, so
    every cell and thread count that memoizes it shares one copy, along
    with the window plans cached on it (:meth:`plan`).
    """

    __slots__ = ("ops", "cum", "_plans")

    def __init__(self, ops: array, cum: array) -> None:
        self.ops = ops
        self.cum = cum
        self._plans: Dict[Tuple[int, int], array] = {}

    @classmethod
    def from_parts(cls, gaps: Iterable[int], ops: Sequence[int]) -> "Trace":
        """A trace from a generator's per-record gaps and packed ops
        (trusted: generators emit non-negative ints)."""
        return cls(array("q", ops), array("q", accumulate(gaps, initial=0)))

    @classmethod
    def from_records(
        cls, records: Iterable[Sequence[object]], tid: int = 0
    ) -> "Trace":
        """The only tuple-to-compact conversion, and the one place records
        are validated: every ``(gap, is_write, address)`` must have three
        integer fields, a non-negative gap and address, an address that
        packs into an int64, and a gap total of at most
        :data:`MAX_GAP_TOTAL`.  Violations
        raise :class:`ValueError` naming thread ``tid`` and the record
        index.
        """
        ops = array("q")
        cum = array("q", [0])
        total = 0
        for index, record in enumerate(records):
            where = f"trace of thread {tid}, record {index}"
            try:
                gap, is_write, address = record
            except (TypeError, ValueError):
                raise ValueError(
                    f"{where}: expected a (gap, is_write, address) record, "
                    f"got {record!r}"
                ) from None
            try:
                gap = operator.index(gap)
                address = operator.index(address)
                if isinstance(is_write, (bool, np.bool_)):
                    write = int(is_write)
                else:
                    write = operator.index(is_write)
            except TypeError:
                raise ValueError(
                    f"{where}: gap, is_write and address must be integers, "
                    f"got {record!r}"
                ) from None
            if gap < 0 or address < 0:
                raise ValueError(
                    f"{where}: negative gap or address in {record!r}"
                )
            if write not in (0, 1):
                raise ValueError(
                    f"{where}: is_write must be a bool or 0/1, got {is_write!r}"
                )
            if address > MAX_ADDRESS:
                raise ValueError(
                    f"{where}: address {address} exceeds {MAX_ADDRESS}"
                )
            total += gap
            if total > MAX_GAP_TOTAL:
                raise ValueError(
                    f"{where}: gap total exceeds {MAX_GAP_TOTAL}"
                )
            ops.append((address << 1) | write)
            cum.append(total)
        return cls(ops, cum)

    # -- the exchange form -------------------------------------------------

    def records(
        self, start: int = 0, end: Optional[int] = None
    ) -> Iterator[TraceRecord]:
        """Records ``start..end-1`` as ``(gap, is_write, address)``."""
        ops, cum = self.ops, self.cum
        if end is None:
            end = len(ops)
        for i in range(start, end):
            op = ops[i]
            yield cum[i + 1] - cum[i], bool(op & 1), op >> 1

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.records()

    def __len__(self) -> int:
        return len(self.ops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.ops == other.ops and self.cum == other.cum

    # -- derived traces ----------------------------------------------------

    @classmethod
    def concat(cls, parts: Sequence["Trace"]) -> "Trace":
        """The records of ``parts`` in order (one part is returned as is)."""
        if len(parts) == 1:
            return parts[0]
        ops = array("q")
        cum = array("q", [0])
        for part in parts:
            ops.extend(part.ops)
            base = cum[-1]
            cum.extend(base + c for c in part.cum[1:])
        return cls(ops, cum)

    def shifted(self, offset: int) -> "Trace":
        """Every address moved up by ``offset`` bytes (the gaps, and so
        ``cum``, are shared)."""
        if not offset:
            return self
        delta = offset << 1
        return Trace(array("q", [op + delta for op in self.ops]), self.cum)

    # -- window plans ------------------------------------------------------

    def plan(self, max_instructions: int, max_ops: int) -> array:
        """Record count of the ROB/MSHR window starting at every trace
        position, built in one numpy pass over ``cum`` and cached per
        ``(max_instructions, max_ops)``.

        Record ``j`` fits a window starting at ``p`` exactly when
        ``cum[j+1] - cum[p] <= max_instructions`` (the ROB budget), so
        the unclamped window length at every position is one vectorized
        ``searchsorted(side="right")``; clamping to ``[1, max_ops]``
        applies the at-least-one-record rule and the MSHR bound.  Two
        threads building the same plan at once store equal arrays.
        """
        key = (max_instructions, max_ops)
        plan = self._plans.get(key)
        if plan is None:
            n = len(self.ops)
            cum = np.frombuffer(self.cum, dtype=np.int64)
            fit = (
                np.searchsorted(cum, cum[:n] + max_instructions, side="right")
                - 1
                - np.arange(n, dtype=np.int64)
            )
            plan = array("q", np.clip(fit, 1, max_ops).tobytes())
            self._plans[key] = plan
        return plan


def trace_instructions(trace: Sequence[TraceRecord]) -> int:
    """Total instruction count a trace represents (gaps + 1 memory op each)."""
    return sum(r[0] for r in trace) + len(trace)


def trace_write_ratio(trace: Sequence[TraceRecord]) -> float:
    if not trace:
        return 0.0
    return sum(1 for r in trace if r[1]) / len(trace)


def trace_mpki(trace: Sequence[TraceRecord]) -> float:
    """Memory accesses per kilo-instruction (the trace-level analogue of
    Table I's LLC MPKI)."""
    instructions = trace_instructions(trace)
    if instructions == 0:
        return 0.0
    return 1000.0 * len(trace) / instructions

