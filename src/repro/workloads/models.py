"""Synthetic workload models.

The paper drives its simulator with PIN traces of seven applications
(Table I).  Those traces are not redistributable at the scale this
reproduction runs, so each application is modelled as a parameterised
stochastic process over the statistical axes the SkyByte mechanisms
actually react to:

* **footprint** -- how many pages the working set spans (Table I's
  memory footprint, scaled with the system scale factor);
* **write ratio** -- fraction of accesses that are stores (Table I);
* **MPKI** -- off-chip accesses per kilo-instruction, which sets the gap
  distribution between memory ops (Table I);
* **page popularity** -- Zipf-skewed page choice; skew determines how
  much a small host-DRAM budget can absorb (drives Fig. 14's page
  promotion wins and Fig. 23);
* **spatial density** -- how many distinct cachelines a page visit
  touches, and whether runs are sequential; this reproduces the per-page
  locality CDFs of Figs. 5/6 that motivate the write log;
* **phase structure** -- a sequential-scan mixture models streaming
  phases (radix, srad) versus pointer-chasing (bc, bfs).

A :class:`WorkloadModel` turns a spec into per-thread traces using a
seeded NumPy generator, so every run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.config import CACHELINE_SIZE, CACHELINES_PER_PAGE, PAGE_SIZE
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class WorkloadSpec:
    """Statistical description of one application (one Table I row plus
    the locality/skew parameters inferred from Figs. 5/6 and §VI)."""

    name: str
    suite: str
    #: Memory footprint at paper scale (Table I).
    footprint_bytes: int
    #: Fraction of memory accesses that are writes (Table I).
    write_ratio: float
    #: LLC misses per kilo-instruction (Table I).
    mpki: float
    #: Zipf exponent for page popularity (higher = more skewed = more
    #: benefit from page promotion).
    zipf_alpha: float
    #: Probability a page visit comes from a sequential scan rather than
    #: the Zipf sampler (streaming phases).
    seq_fraction: float
    #: Mean number of distinct cachelines touched per page visit
    #: (geometric); controls the Fig. 5/6 in-page density.
    burst_mean: float
    #: Whether in-page lines are consecutive (stencils/rows) or random
    #: (hash probes, embedding gathers).
    in_page_sequential: bool
    #: Whether writes land on random lines of the visited page instead of
    #: following the read run (sparse-write workloads like srad).
    sparse_writes: bool = False
    #: Threads partition the footprint (radix ranges) instead of sharing.
    partitioned: bool = False
    #: Dependence-limited memory-level parallelism: how many independent
    #: off-chip accesses the workload exposes inside one ROB window.
    #: Pointer-chasing codes (graph traversal, hash probes) sit at 1-3;
    #: streaming kernels reach the MSHR limit.  This is what makes OoO
    #: "less effective for hiding the long flash access latency" (§II-C)
    #: and gives the coordinated context switch its opening.
    mlp: int = 8
    #: Fraction of writes that target a small, shared set of hot lines
    #: (rank arrays, frontier flags, aggregation counters, DB row headers
    #: -- the repeatedly-rewritten state every iterative workload has).
    #: These rewrites are what log compaction coalesces (Fig. 18/20).
    hot_write_fraction: float = 0.5
    #: Size of that hot-line set.
    hot_write_lines: int = 256
    #: Fraction of (non-hot) writes that stream to a write-only output
    #: region (result images, sort buckets).  The baseline must
    #: read-modify-write each such page (write-allocate fetch!), while the
    #: write log absorbs them without ever touching flash on the critical
    #: path -- the paper's "workloads that have many sparse writes (e.g.,
    #: srad) benefit more from SkyByte-W".
    write_stream_fraction: float = 0.0

    def footprint_pages(self, scale: int = 1) -> int:
        """Working-set size in 4 KB pages after capacity scaling."""
        return max(64, int(self.footprint_bytes / scale) // PAGE_SIZE)


class WorkloadModel:
    """Trace generator for one workload spec."""

    def __init__(self, spec: WorkloadSpec, scale: int = 1, seed: int = 42) -> None:
        self.spec = spec
        self.scale = scale
        self.seed = seed
        self.pages = spec.footprint_pages(scale)
        self._zipf_cdf: Optional[np.ndarray] = None
        self._page_perm: Optional[np.ndarray] = None
        self._hot_writes: Optional[List[int]] = None

    # -- page popularity --------------------------------------------------------

    def _popularity_cdf(self) -> np.ndarray:
        """CDF of a truncated Zipf over the footprint's pages.  Rank order
        is a fixed random permutation of the pages so hot pages are
        scattered through the address space (as real heaps are), not
        clustered at low addresses next to the scan phases."""
        if self._zipf_cdf is None:
            ranks = np.arange(1, self.pages + 1, dtype=np.float64)
            weights = ranks ** (-self.spec.zipf_alpha)
            rng = np.random.default_rng(self.seed ^ 0x5EED)
            # The permutation is stored first: a model shared across
            # threads is ready once ``_zipf_cdf`` is set.
            self._page_perm = rng.permutation(self.pages)
            self._zipf_cdf = np.cumsum(weights) / weights.sum()
        return self._zipf_cdf

    def _sample_pages(self, rng: np.random.Generator, n: int) -> np.ndarray:
        cdf = self._popularity_cdf()
        draws = rng.random(n)
        ranked = np.searchsorted(cdf, draws, side="left")
        return self._page_perm[np.minimum(ranked, self.pages - 1)]

    # -- trace generation ----------------------------------------------------------

    def generate(
        self,
        threads: int,
        records_per_thread: int,
        tids: Optional[Sequence[int]] = None,
    ) -> List[Trace]:
        """Per-thread traces, each about ``records_per_thread`` records,
        for thread ids ``tids`` (default: all ``threads``).  Thread
        ``t``'s trace depends on ``threads`` only when the spec is
        partitioned."""
        if tids is None:
            tids = range(threads)
        return [
            self.generate_thread(tid, threads, records_per_thread)
            for tid in tids
        ]

    def _hot_write_set(self) -> List[int]:
        """Shared hot-write line addresses (same for every thread; drawn
        once per model)."""
        if self._hot_writes is not None:
            return self._hot_writes
        spec = self.spec
        rng = np.random.default_rng((self.seed ^ 0xB00C) & 0x7FFFFFFF)
        count = min(spec.hot_write_lines, self.pages * 4)
        # Concentrate the hot lines on a compact page set (~2 lines/page)
        # drawn from its own permutation so it doesn't coincide with the
        # read-hot pages.
        hot_pages = rng.choice(self.pages, size=max(1, count // 2), replace=False)
        addrs = []
        for i in range(count):
            page = int(hot_pages[i % len(hot_pages)])
            line = int(rng.integers(0, CACHELINES_PER_PAGE))
            addrs.append(page * PAGE_SIZE + line * CACHELINE_SIZE)
        self._hot_writes = addrs
        return addrs

    def generate_thread(self, tid: int, threads: int, records: int) -> Trace:
        spec = self.spec
        rng = np.random.default_rng((self.seed * 1_000_003 + tid) & 0x7FFFFFFF)
        hot_writes = self._hot_write_set()

        # Thread's page range (partitioned workloads slice the footprint).
        if spec.partitioned and threads > 1:
            span = self.pages // threads
            base_page = tid * span
            local_pages = max(1, span)
        else:
            base_page = 0
            local_pages = self.pages

        # Visits: geometric burst sizes with the spec's mean.
        mean_burst = max(1.0, spec.burst_mean)
        est_visits = max(1, int(records / mean_burst) + 8)
        p_geom = min(1.0, 1.0 / mean_burst)
        bursts = rng.geometric(p_geom, size=est_visits)
        np.clip(bursts, 1, CACHELINES_PER_PAGE, out=bursts)

        seq_mask = (rng.random(est_visits) < spec.seq_fraction).tolist()
        zipf_pages = self._sample_pages(rng, est_visits).tolist()
        bursts = bursts.tolist()
        scan_pos = int(rng.integers(0, local_pages))
        # Write-only output region: the top quarter of this thread's pages.
        out_base = base_page + (local_pages * 3) // 4
        out_span = max(1, local_pages - (local_pages * 3) // 4)
        out_pos = 0

        gap_mean = max(1.0, 1000.0 / spec.mpki)

        # Per record: its gap and its packed op ``(address << 1) |
        # is_write``; each visit's numpy draws become lists once.
        gaps_out: List[int] = []
        ops_out: List[int] = []
        for v in range(est_visits):
            if len(ops_out) >= records:
                break
            burst = bursts[v]
            if seq_mask[v]:
                page = base_page + (scan_pos % local_pages)
                scan_pos += 1
            else:
                page = zipf_pages[v] % self.pages
                if spec.partitioned and threads > 1:
                    page = base_page + page % local_pages
            if spec.in_page_sequential:
                start = int(rng.integers(0, CACHELINES_PER_PAGE))
                lines = [(start + i) % CACHELINES_PER_PAGE for i in range(burst)]
            else:
                lines = rng.choice(
                    CACHELINES_PER_PAGE, size=min(burst, CACHELINES_PER_PAGE),
                    replace=False,
                ).tolist()
            line_writes = (rng.random(len(lines)) < spec.write_ratio).tolist()
            gaps = rng.exponential(gap_mean, size=len(lines)).astype(
                np.int64).tolist()
            for i, line in enumerate(lines):
                is_write = line_writes[i]
                if is_write and rng.random() < spec.hot_write_fraction:
                    # Rewrite of hot shared state (coalescable).
                    addr = hot_writes[int(rng.integers(0, len(hot_writes)))]
                elif is_write and rng.random() < spec.write_stream_fraction:
                    # Streaming store to the write-only output region.
                    out_page = out_base + (out_pos // CACHELINES_PER_PAGE) % out_span
                    out_line = out_pos % CACHELINES_PER_PAGE
                    out_pos += int(rng.integers(1, 9))  # sparse output stride
                    addr = out_page * PAGE_SIZE + out_line * CACHELINE_SIZE
                else:
                    if is_write and spec.sparse_writes:
                        line = int(rng.integers(0, CACHELINES_PER_PAGE))
                    addr = page * PAGE_SIZE + line * CACHELINE_SIZE
                gaps_out.append(gaps[i])
                ops_out.append((addr << 1) | is_write)
                if len(ops_out) >= records:
                    break
        return Trace.from_parts(gaps_out, ops_out)
