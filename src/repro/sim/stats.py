"""Statistics collection for the SkyByte simulator.

One :class:`SimStats` object is shared by every component of a system
simulation.  It implements exactly the accounting the paper's figures need:

* off-chip latency distribution (Fig. 3) via a log-bucketed histogram,
* compute/memory boundedness breakdown (Figs. 4 and 10),
* per-page cacheline locality CDFs for flash reads and flushes (Figs. 5/6),
* memory request classes H-R/W, S-R-H, S-R-M, S-W (Fig. 16),
* AMAT components host-DRAM / CXL protocol / indexing / SSD DRAM / flash
  (Fig. 17, computed with the paper's three-level hierarchy model),
* flash write traffic (Figs. 18 and 20) and read latency (Table III),
* throughput and SSD bandwidth utilisation (Fig. 15).

Stats collection honours a warmup window: all mutators are no-ops while
``enabled`` is False, mirroring the paper's trace warmup phase.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.config import CACHELINES_PER_PAGE

# Request classes of Fig. 16.
HOST_DRAM = "H-R/W"  # served by (promoted pages in) host DRAM
SSD_READ_HIT = "S-R-H"  # read hit in SSD write log or data cache
SSD_READ_MISS = "S-R-M"  # read miss -> flash access
SSD_WRITE = "S-W"  # write appended to log / absorbed by SSD DRAM

REQUEST_CLASSES = (HOST_DRAM, SSD_READ_HIT, SSD_READ_MISS, SSD_WRITE)


class LatencyHistogram:
    """Log-bucketed latency histogram (10 buckets per decade).

    Supports the percentile queries used to plot Fig. 3's latency CDFs
    without storing every sample.
    """

    BUCKETS_PER_DECADE = 10

    #: Device latencies are heavily quantised (fixed DRAM load-to-use,
    #: per-tier flash read points), so the same float recurs millions of
    #: times; memoising its bucket skips the ``log10`` on every repeat.
    _BUCKET_CACHE_MAX = 4096

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._total = 0
        self._sum = 0.0
        self._max = 0.0
        self._min = math.inf
        self._bucket_cache: Dict[float, int] = {}

    def record(self, latency_ns: float) -> None:
        if latency_ns < 1.0:
            latency_ns = 1.0
        cache = self._bucket_cache
        bucket = cache.get(latency_ns)
        if bucket is None:
            bucket = int(math.log10(latency_ns) * self.BUCKETS_PER_DECADE)
            if len(cache) < self._BUCKET_CACHE_MAX:
                cache[latency_ns] = bucket
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self._total += 1
        self._sum += latency_ns
        if latency_ns > self._max:
            self._max = latency_ns
        if latency_ns < self._min:
            self._min = latency_ns

    def record_window(self, completes: List[float], now: float) -> float:
        """:meth:`record` of ``c - now`` for every ``c`` in ``completes``,
        in order: the same clamp, bucket cache and summation order, with
        the running fields kept in locals for the whole window.

        Returns the longest raw ``c - now`` (before the clamp), or
        ``-inf`` for an empty window: the core's window wall is that or
        its compute time, whichever is longer.
        """
        cache = self._bucket_cache
        counts = self._counts
        total = self._sum
        high = self._max
        low = self._min
        longest = -math.inf
        for complete in completes:
            latency_ns = complete - now
            if latency_ns > longest:
                longest = latency_ns
            if latency_ns < 1.0:
                latency_ns = 1.0
            bucket = cache.get(latency_ns)
            if bucket is None:
                bucket = int(math.log10(latency_ns) * self.BUCKETS_PER_DECADE)
                if len(cache) < self._BUCKET_CACHE_MAX:
                    cache[latency_ns] = bucket
            counts[bucket] = counts.get(bucket, 0) + 1
            total += latency_ns
            if latency_ns > high:
                high = latency_ns
            if latency_ns < low:
                low = latency_ns
        self._total += len(completes)
        self._sum = total
        self._max = high
        self._min = low
        return longest

    @property
    def count(self) -> int:
        return self._total

    @property
    def mean(self) -> float:
        return self._sum / self._total if self._total else 0.0

    @property
    def max(self) -> float:
        return self._max

    @property
    def min(self) -> float:
        return self._min if self._total else 0.0

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile (0 < p <= 100).

        Returns the upper edge of the bucket containing the percentile.
        """
        if not self._total:
            return 0.0
        target = max(1, math.ceil(self._total * p / 100.0))
        seen = 0
        for bucket in sorted(self._counts):
            seen += self._counts[bucket]
            if seen >= target:
                return 10 ** ((bucket + 1) / self.BUCKETS_PER_DECADE)
        return self._max

    def cdf(self) -> List[Tuple[float, float]]:
        """Return (latency_ns, cumulative_fraction) points for plotting."""
        points: List[Tuple[float, float]] = []
        seen = 0
        for bucket in sorted(self._counts):
            seen += self._counts[bucket]
            edge = 10 ** ((bucket + 1) / self.BUCKETS_PER_DECADE)
            points.append((edge, seen / self._total))
        return points

    def fraction_below(self, latency_ns: float) -> float:
        """Fraction of samples at or below ``latency_ns``."""
        if not self._total:
            return 0.0
        seen = 0
        for bucket in sorted(self._counts):
            edge = 10 ** ((bucket + 1) / self.BUCKETS_PER_DECADE)
            if edge > latency_ns:
                break
            seen += self._counts[bucket]
        return seen / self._total

    def count_above(self, latency_ns: float) -> int:
        """Number of samples in buckets whose upper edge exceeds
        ``latency_ns`` -- the SLO-violation counter."""
        seen = 0
        for bucket, count in self._counts.items():
            edge = 10 ** ((bucket + 1) / self.BUCKETS_PER_DECADE)
            if edge > latency_ns:
                seen += count
        return seen

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram (bucket-exact:
        merging then querying equals recording every sample here)."""
        for bucket, count in other._counts.items():
            self._counts[bucket] = self._counts.get(bucket, 0) + count
        self._total += other._total
        self._sum += other._sum
        if other._max > self._max:
            self._max = other._max
        if other._min < self._min:
            self._min = other._min

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (bucket keys become strings; an empty
        histogram stores ``min`` as ``None`` instead of ``inf``)."""
        return {
            "counts": {str(b): c for b, c in self._counts.items()},
            "total": self._total,
            "sum": self._sum,
            "max": self._max,
            "min": self._min if self._total else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LatencyHistogram":
        hist = cls()
        hist._counts = {int(b): int(c) for b, c in data["counts"].items()}
        hist._total = int(data["total"])
        hist._sum = float(data["sum"])
        hist._max = float(data["max"])
        hist._min = math.inf if data["min"] is None else float(data["min"])
        return hist


class LocalityTracker:
    """Collects the per-page cacheline-touch ratios of Figs. 5 and 6.

    ``record(n_touched)`` is called once per page event (a flash read for
    Fig. 5, a flush/writeback for Fig. 6) with the number of distinct
    cachelines the host touched in that page while it was resident.
    """

    def __init__(self) -> None:
        # counts[k] = number of page events with exactly k lines touched.
        self._counts = [0] * (CACHELINES_PER_PAGE + 1)
        self._total = 0

    def record(self, lines_touched: int) -> None:
        lines_touched = max(0, min(CACHELINES_PER_PAGE, lines_touched))
        self._counts[lines_touched] += 1
        self._total += 1

    @property
    def count(self) -> int:
        return self._total

    def cdf(self) -> List[Tuple[float, float]]:
        """(ratio_of_lines, cumulative_fraction_of_pages) points."""
        points: List[Tuple[float, float]] = []
        seen = 0
        for k in range(CACHELINES_PER_PAGE + 1):
            seen += self._counts[k]
            if self._counts[k]:
                points.append((k / CACHELINES_PER_PAGE, seen / self._total))
        return points

    def fraction_of_pages_below(self, line_ratio: float) -> float:
        """Fraction of page events that touched at most ``line_ratio`` of
        the page's cachelines (e.g. 0.4 for the paper's "<40% of lines in
        >75% of pages" observation)."""
        if not self._total:
            return 0.0
        limit = int(line_ratio * CACHELINES_PER_PAGE)
        return sum(self._counts[: limit + 1]) / self._total

    def mean_ratio(self) -> float:
        if not self._total:
            return 0.0
        touched = sum(k * c for k, c in enumerate(self._counts))
        return touched / (self._total * CACHELINES_PER_PAGE)

    def merge(self, other: "LocalityTracker") -> None:
        for k, count in enumerate(other._counts):
            self._counts[k] += count
        self._total += other._total

    def to_dict(self) -> Dict[str, object]:
        return {"counts": list(self._counts), "total": self._total}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LocalityTracker":
        tracker = cls()
        counts = [int(c) for c in data["counts"]]
        # Tolerate trackers serialized at a different CACHELINES_PER_PAGE.
        tracker._counts[: len(counts)] = counts[: len(tracker._counts)]
        tracker._total = int(data["total"])
        return tracker


class DeviceStats:
    """Per-op accounting of the deep device model (``device_model="deep"``).

    Attached as :attr:`SimStats.device` only when a deep-model flash
    subsystem is built, so flat runs serialise (and hash) exactly as
    before the deep model existed: :meth:`SimStats.to_dict` emits a
    ``"device"`` key only when this object is present.
    """

    def __init__(self) -> None:
        #: Flash page reads issued on behalf of GC valid-page migration.
        self.gc_reads = 0
        #: Flash page programs issued on behalf of GC migration.
        self.gc_programs = 0
        #: Block erases issued by GC campaigns.
        self.gc_erases = 0
        #: Deferred background-GC campaigns that actually ran.
        self.background_campaigns = 0
        #: Per-channel in-flight command-queue depth: peak, plus
        #: sum/samples for the mean (sampled at every submit).
        self.queue_depth_peak: List[int] = []
        self.queue_depth_sum = 0
        self.queue_depth_samples = 0

    def note_queue_depth(self, channel: int, depth: int) -> None:
        if channel >= len(self.queue_depth_peak):
            self.queue_depth_peak.extend(
                [0] * (channel + 1 - len(self.queue_depth_peak))
            )
        if depth > self.queue_depth_peak[channel]:
            self.queue_depth_peak[channel] = depth
        self.queue_depth_sum += depth
        self.queue_depth_samples += 1

    @property
    def mean_queue_depth(self) -> float:
        if not self.queue_depth_samples:
            return 0.0
        return self.queue_depth_sum / self.queue_depth_samples

    @property
    def max_queue_depth(self) -> int:
        return max(self.queue_depth_peak, default=0)

    def merge(self, other: "DeviceStats") -> None:
        self.gc_reads += other.gc_reads
        self.gc_programs += other.gc_programs
        self.gc_erases += other.gc_erases
        self.background_campaigns += other.background_campaigns
        if len(other.queue_depth_peak) > len(self.queue_depth_peak):
            self.queue_depth_peak.extend(
                [0] * (len(other.queue_depth_peak) - len(self.queue_depth_peak))
            )
        for channel, peak in enumerate(other.queue_depth_peak):
            if peak > self.queue_depth_peak[channel]:
                self.queue_depth_peak[channel] = peak
        self.queue_depth_sum += other.queue_depth_sum
        self.queue_depth_samples += other.queue_depth_samples

    def to_dict(self) -> Dict[str, object]:
        return {
            "gc_reads": self.gc_reads,
            "gc_programs": self.gc_programs,
            "gc_erases": self.gc_erases,
            "background_campaigns": self.background_campaigns,
            "queue_depth_peak": list(self.queue_depth_peak),
            "queue_depth_sum": self.queue_depth_sum,
            "queue_depth_samples": self.queue_depth_samples,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DeviceStats":
        device = cls()
        device.gc_reads = int(data["gc_reads"])
        device.gc_programs = int(data["gc_programs"])
        device.gc_erases = int(data["gc_erases"])
        device.background_campaigns = int(data["background_campaigns"])
        device.queue_depth_peak = [int(p) for p in data["queue_depth_peak"]]
        device.queue_depth_sum = int(data["queue_depth_sum"])
        device.queue_depth_samples = int(data["queue_depth_samples"])
        return device


class EngineStats:
    """Event-engine observability counters (opt-in, tracing runs only).

    Attached as :attr:`SimStats.engine` only when a run is executed with
    tracing enabled (``SimConfig.trace.enabled``), so ordinary runs
    serialise (and hash) exactly as before: :meth:`SimStats.to_dict`
    emits an ``"engine"`` key only when this object is present.
    """

    def __init__(self) -> None:
        #: Events executed by the run's :class:`~repro.sim.engine.Engine`.
        self.events_processed = 0
        #: Past-time ``schedule_at`` calls the engine clamped to now.
        self.past_clamps = 0

    def merge(self, other: "EngineStats") -> None:
        self.events_processed += other.events_processed
        self.past_clamps += other.past_clamps

    def to_dict(self) -> Dict[str, object]:
        return {
            "events_processed": self.events_processed,
            "past_clamps": self.past_clamps,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EngineStats":
        engine = cls()
        engine.events_processed = int(data["events_processed"])
        engine.past_clamps = int(data["past_clamps"])
        return engine


#: Plain-number attributes of :class:`SimStats`, serialized verbatim.
SCALAR_STATS: Tuple[str, ...] = (
    "instructions",
    "compute_ns",
    "memory_stall_ns",
    "context_switch_ns",
    "context_switches",
    "start_ns",
    "end_ns",
    "amat_host_dram_ns",
    "amat_protocol_ns",
    "amat_indexing_ns",
    "amat_ssd_dram_ns",
    "amat_flash_ns",
    "amat_accesses",
    "flash_page_reads",
    "flash_page_writes",
    "flash_block_erases",
    "gc_page_moves",
    "gc_invocations",
    "host_lines_written",
    "host_lines_read",
    "log_appends",
    "log_coalesced_updates",
    "log_compactions",
    "compaction_pages_flushed",
    "compaction_ns",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_dirty_evictions",
    "prefetch_issued",
    "pages_promoted",
    "pages_demoted",
    "promoted_hits",
    "cxl_bytes",
)


class SimStats:
    """Aggregate statistics for one simulation run."""

    def __init__(self) -> None:
        self.enabled = True

        # --- execution/boundedness (Figs. 2, 4, 10) ---
        self.instructions = 0
        self.compute_ns = 0.0
        self.memory_stall_ns = 0.0
        self.context_switch_ns = 0.0
        self.context_switches = 0
        self.start_ns = 0.0
        self.end_ns = 0.0

        # --- request classes and latencies (Figs. 3, 16) ---
        self.request_counts: Dict[str, int] = {c: 0 for c in REQUEST_CLASSES}
        self.offchip_latency = LatencyHistogram()
        self.flash_read_latency = LatencyHistogram()

        # --- AMAT components, exposed-time weighted (Fig. 17) ---
        self.amat_host_dram_ns = 0.0
        self.amat_protocol_ns = 0.0
        self.amat_indexing_ns = 0.0
        self.amat_ssd_dram_ns = 0.0
        self.amat_flash_ns = 0.0
        self.amat_accesses = 0

        # --- flash traffic (Figs. 18, 20) ---
        self.flash_page_reads = 0
        self.flash_page_writes = 0
        self.flash_block_erases = 0
        self.gc_page_moves = 0
        self.gc_invocations = 0
        self.host_lines_written = 0
        self.host_lines_read = 0

        # --- SSD DRAM structures ---
        self.log_appends = 0
        self.log_coalesced_updates = 0
        self.log_compactions = 0
        self.compaction_pages_flushed = 0
        self.compaction_ns = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.cache_dirty_evictions = 0
        self.prefetch_issued = 0

        # --- migrations (Fig. 23 designs) ---
        self.pages_promoted = 0
        self.pages_demoted = 0
        self.promoted_hits = 0

        # --- locality (Figs. 5/6) ---
        self.read_locality = LocalityTracker()
        self.write_locality = LocalityTracker()

        # --- link utilisation (Fig. 15) ---
        self.cxl_bytes = 0

        # --- deep device model (None on flat runs; see DeviceStats) ---
        self.device: "DeviceStats | None" = None

        # --- engine counters (None unless tracing; see EngineStats) ---
        self.engine: "EngineStats | None" = None

    # -- mutators (no-ops during warmup) ------------------------------------

    def add_context_switch(self, ns: float) -> None:
        if self.enabled:
            self.context_switch_ns += ns
            self.context_switches += 1

    def count_request(self, cls: str) -> None:
        if self.enabled:
            self.request_counts[cls] += 1

    def record_offchip(self, latency_ns: float) -> None:
        if self.enabled:
            self.offchip_latency.record(latency_ns)

    def record_amat(
        self,
        host_dram: float = 0.0,
        protocol: float = 0.0,
        indexing: float = 0.0,
        ssd_dram: float = 0.0,
        flash: float = 0.0,
    ) -> None:
        if not self.enabled:
            return
        self.amat_host_dram_ns += host_dram
        self.amat_protocol_ns += protocol
        self.amat_indexing_ns += indexing
        self.amat_ssd_dram_ns += ssd_dram
        self.amat_flash_ns += flash
        self.amat_accesses += 1

    def add_amat_extra(
        self,
        host_dram: float = 0.0,
        protocol: float = 0.0,
        indexing: float = 0.0,
        ssd_dram: float = 0.0,
        flash: float = 0.0,
    ) -> None:
        """Add AMAT component time *without* counting a new access -- used
        when a wrapper layer (CXL link, host cache) adds cost to an access
        another layer already recorded."""
        if not self.enabled:
            return
        self.amat_host_dram_ns += host_dram
        self.amat_protocol_ns += protocol
        self.amat_indexing_ns += indexing
        self.amat_ssd_dram_ns += ssd_dram
        self.amat_flash_ns += flash

    def add_cxl_bytes(self, n: int) -> None:
        if self.enabled:
            self.cxl_bytes += n

    # -- derived metrics -----------------------------------------------------

    @property
    def execution_ns(self) -> float:
        return self.end_ns - self.start_ns

    @property
    def amat_ns(self) -> float:
        """Average memory access time over all off-chip accesses."""
        if not self.amat_accesses:
            return 0.0
        total = (
            self.amat_host_dram_ns
            + self.amat_protocol_ns
            + self.amat_indexing_ns
            + self.amat_ssd_dram_ns
            + self.amat_flash_ns
        )
        return total / self.amat_accesses

    def amat_breakdown(self) -> Dict[str, float]:
        """Per-access AMAT components (Fig. 17's stack order)."""
        n = max(1, self.amat_accesses)
        return {
            "Host DRAM": self.amat_host_dram_ns / n,
            "CXL Protocol": self.amat_protocol_ns / n,
            "Indexing": self.amat_indexing_ns / n,
            "SSD DRAM": self.amat_ssd_dram_ns / n,
            "Flash": self.amat_flash_ns / n,
        }

    def boundedness(self) -> Dict[str, float]:
        """Fractions of execution time bounded by memory / compute /
        context switching (Figs. 4 and 10)."""
        total = self.compute_ns + self.memory_stall_ns + self.context_switch_ns
        if total <= 0:
            return {"memory": 0.0, "compute": 0.0, "context_switch": 0.0}
        return {
            "memory": self.memory_stall_ns / total,
            "compute": self.compute_ns / total,
            "context_switch": self.context_switch_ns / total,
        }

    @property
    def flash_bytes_written(self) -> int:
        from repro.config import PAGE_SIZE

        return self.flash_page_writes * PAGE_SIZE

    @property
    def write_amplification(self) -> float:
        """Flash bytes written per host byte written (Fig. 18's metric,
        inverted: higher means more amplification)."""
        from repro.config import CACHELINE_SIZE

        host_bytes = self.host_lines_written * CACHELINE_SIZE
        if host_bytes == 0:
            return 0.0
        return self.flash_bytes_written / host_bytes

    @property
    def throughput_ipns(self) -> float:
        """Instructions per nanosecond across all cores."""
        if self.execution_ns <= 0:
            return 0.0
        return self.instructions / self.execution_ns

    def request_breakdown(self) -> Dict[str, float]:
        """Fractions per request class (Fig. 16)."""
        total = sum(self.request_counts.values())
        if total == 0:
            return {c: 0.0 for c in REQUEST_CLASSES}
        return {c: self.request_counts[c] / total for c in REQUEST_CLASSES}

    # -- aggregation ---------------------------------------------------------

    def merge(self, other: "SimStats") -> None:
        """Fold ``other`` into this object: scalar counters and request
        counts add, histograms and locality trackers merge bucket-wise,
        and the measurement window becomes the union
        (``start = min``, ``end = max``).  Summing per-tenant stats this
        way reproduces the aggregate exactly (the conservation property
        pinned in ``tests/test_stats.py``)."""
        for name in SCALAR_STATS:
            if name == "start_ns":
                self.start_ns = min(self.start_ns, other.start_ns)
            elif name == "end_ns":
                self.end_ns = max(self.end_ns, other.end_ns)
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))
        for cls_name, count in other.request_counts.items():
            self.request_counts[cls_name] = (
                self.request_counts.get(cls_name, 0) + count
            )
        self.offchip_latency.merge(other.offchip_latency)
        self.flash_read_latency.merge(other.flash_read_latency)
        self.read_locality.merge(other.read_locality)
        self.write_locality.merge(other.write_locality)
        if other.device is not None:
            if self.device is None:
                self.device = DeviceStats()
            self.device.merge(other.device)
        if other.engine is not None:
            if self.engine is None:
                self.engine = EngineStats()
            self.engine.merge(other.engine)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict capturing every counter, histogram and tracker.

        Round-trips losslessly through :meth:`from_dict`: the orchestrator
        relies on this so a cached or worker-process result is numerically
        identical to one computed in-process.
        """
        data = {
            "enabled": self.enabled,
            "scalars": {name: getattr(self, name) for name in SCALAR_STATS},
            "request_counts": dict(self.request_counts),
            "offchip_latency": self.offchip_latency.to_dict(),
            "flash_read_latency": self.flash_read_latency.to_dict(),
            "read_locality": self.read_locality.to_dict(),
            "write_locality": self.write_locality.to_dict(),
        }
        # Only deep-model runs carry device stats; flat runs keep the
        # exact pre-deep-model serialisation (golden digests).
        if self.device is not None:
            data["device"] = self.device.to_dict()
        # Engine counters likewise appear only on tracing runs.
        if self.engine is not None:
            data["engine"] = self.engine.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimStats":
        stats = cls()
        stats.enabled = bool(data["enabled"])
        for name, value in data["scalars"].items():
            setattr(stats, name, value)
        stats.request_counts = {c: 0 for c in REQUEST_CLASSES}
        stats.request_counts.update(
            {c: int(n) for c, n in data["request_counts"].items()}
        )
        stats.offchip_latency = LatencyHistogram.from_dict(data["offchip_latency"])
        stats.flash_read_latency = LatencyHistogram.from_dict(
            data["flash_read_latency"]
        )
        stats.read_locality = LocalityTracker.from_dict(data["read_locality"])
        stats.write_locality = LocalityTracker.from_dict(data["write_locality"])
        if data.get("device") is not None:
            stats.device = DeviceStats.from_dict(data["device"])
        if data.get("engine") is not None:
            stats.engine = EngineStats.from_dict(data["engine"])
        return stats

    def summary(self) -> Dict[str, float]:
        """A flat dict of headline metrics, handy for tables.

        Deep-model runs gain ``gc_*`` / queue-depth keys; flat runs keep
        the exact pre-deep-model key set (golden summaries).
        """
        bd = self.boundedness()
        out = {
            "execution_ns": self.execution_ns,
            "instructions": float(self.instructions),
            "throughput_ipns": self.throughput_ipns,
            "amat_ns": self.amat_ns,
            "context_switches": float(self.context_switches),
            "flash_page_reads": float(self.flash_page_reads),
            "flash_page_writes": float(self.flash_page_writes),
            "flash_block_erases": float(self.flash_block_erases),
            "write_amplification": self.write_amplification,
            "memory_bound_frac": bd["memory"],
            "compute_bound_frac": bd["compute"],
            "pages_promoted": float(self.pages_promoted),
            "mean_flash_read_ns": self.flash_read_latency.mean,
        }
        if self.device is not None:
            out["gc_reads"] = float(self.device.gc_reads)
            out["gc_programs"] = float(self.device.gc_programs)
            out["gc_erases"] = float(self.device.gc_erases)
            out["background_gc_campaigns"] = float(
                self.device.background_campaigns
            )
            out["mean_queue_depth"] = self.device.mean_queue_depth
            out["max_queue_depth"] = float(self.device.max_queue_depth)
        if self.engine is not None:
            out["events_processed"] = float(self.engine.events_processed)
            out["past_clamps"] = float(self.engine.past_clamps)
        return out
