"""Detailed-mode trace filtering: raw access streams -> LLC-miss streams.

The paper's methodology captures *all* memory references with PIN and
replays them through simulated L1/L2/L3 caches; the off-chip traffic the
CXL-SSD sees is the LLC-miss residue.  The fast interval model in this
package replays miss-level traces directly (Table I's MPKI is defined at
that level), but when you have a raw reference stream -- from your own
instrumentation, or from the detailed examples -- this module performs
the same reduction: it walks the stream through
:class:`repro.cpu.hierarchy.CacheHierarchy` and emits the records that
miss all three levels, with their gap fields re-aggregated so downstream
MPKI accounting stays consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.config import CACHELINE_SIZE, CPUConfig
from repro.cpu.hierarchy import CacheHierarchy
from repro.workloads.trace import TraceRecord


@dataclass
class FilterResult:
    """Outcome of filtering one reference stream."""

    miss_trace: List[TraceRecord]
    references: int
    hits: dict  # level name -> count
    mshr_stalls: int

    @property
    def miss_rate(self) -> float:
        if self.references == 0:
            return 0.0
        return len(self.miss_trace) / self.references

    @property
    def llc_mpki(self) -> float:
        """LLC misses per kilo-instruction of the filtered stream."""
        instructions = sum(r[0] for r in self.miss_trace) + self.references
        if instructions == 0:
            return 0.0
        return 1000.0 * len(self.miss_trace) / instructions


def filter_trace(
    trace: Sequence[TraceRecord],
    config: CPUConfig = None,
    core: int = 0,
    hierarchy: CacheHierarchy = None,
) -> FilterResult:
    """Reduce a raw per-reference trace to its off-chip miss stream.

    Each record's gap (instructions since the previous reference) is
    preserved by folding the gaps of hit references into the next miss,
    exactly how an interval model accounts for on-chip work.

    Args:
        trace: (gap, is_write, address) records at reference granularity
            (a compact :class:`~repro.workloads.trace.Trace` iterates as
            these).
        config: CPU configuration (cache shapes/MSHRs); default Table II.
        core: which core's private L1/L2 to use.
        hierarchy: optionally share one hierarchy across calls (e.g. to
            filter several threads against a shared L3).
    """
    if config is None:
        config = CPUConfig()
    if hierarchy is None:
        hierarchy = CacheHierarchy(config)
    misses: List[TraceRecord] = []
    hits = {"L1": 0, "L2": 0, "L3": 0}
    pending_gap = 0
    stalls = 0
    for gap, is_write, address in trace:
        pending_gap += gap
        line = address // CACHELINE_SIZE
        result = hierarchy.access(core, line, is_write)
        if result.hit_level is not None:
            hits[result.hit_level] += 1
            continue
        if result.mshr_stall:
            stalls += 1
        # Off-chip: emit, fill, carry the accumulated gap.
        misses.append((pending_gap, is_write, address))
        pending_gap = 0
        hierarchy.fill_from_memory(core, line, dirty=is_write)
    return FilterResult(
        miss_trace=misses,
        references=len(trace),
        hits=hits,
        mshr_stalls=stalls,
    )


def filter_threads(
    traces: Sequence[Sequence[TraceRecord]],
    config: CPUConfig = None,
) -> Tuple[List[List[TraceRecord]], List[FilterResult]]:
    """Filter one stream per core against a shared hierarchy (shared L3
    captures constructive/destructive interference between threads)."""
    if config is None:
        config = CPUConfig()
    hierarchy = CacheHierarchy(config)
    outputs: List[List[TraceRecord]] = []
    results: List[FilterResult] = []
    for i, trace in enumerate(traces):
        result = filter_trace(
            trace, config=config, core=i % config.cores, hierarchy=hierarchy
        )
        outputs.append(result.miss_trace)
        results.append(result)
    return outputs, results
