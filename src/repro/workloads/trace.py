"""Trace record format and helpers.

A trace is a sequence of ``(gap, is_write, address)`` records: the thread
executes ``gap`` non-memory instructions, then issues one 64 B memory
access at ``address``.  This is the LLC-miss-stream level of detail the
fast interval model replays (on-chip cache hits are folded into the gap /
IPC term), the same level at which the paper's Table I characterises its
workloads via LLC MPKI.

Traces travel as ``.sbt`` files (:mod:`repro.scenarios.tracefile`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.config import PAGE_SIZE

TraceRecord = Tuple[int, bool, int]


class TraceFormatError(ValueError):
    """A persisted trace is malformed, truncated, or mis-ordered.

    Raised instead of silently replaying a prefix: a short read on a
    trace file must fail loudly, or every downstream stat is quietly
    computed over the wrong workload.
    """


def make_trace(
    gaps: np.ndarray, writes: np.ndarray, addresses: np.ndarray
) -> List[TraceRecord]:
    """Zip parallel arrays into the list-of-tuples form the cores replay."""
    if not (len(gaps) == len(writes) == len(addresses)):
        raise ValueError("trace arrays must have equal length")
    return list(zip(gaps.tolist(), [bool(w) for w in writes], addresses.tolist()))


def trace_instructions(trace: Sequence[TraceRecord]) -> int:
    """Total instruction count a trace represents (gaps + 1 memory op each)."""
    return sum(r[0] for r in trace) + len(trace)


def trace_footprint_pages(trace: Sequence[TraceRecord]) -> int:
    """Number of distinct 4 KB pages the trace touches."""
    return len({r[2] // PAGE_SIZE for r in trace})


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
