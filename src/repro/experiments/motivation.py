"""Motivation experiments: Figs. 2-6 of the paper (§II-C).

These quantify why naive CXL-SSDs disappoint: end-to-end slowdown versus
DRAM (Fig. 2), the bimodal latency distribution with its flash tail
(Fig. 3), memory-boundedness (Fig. 4), and the per-page cacheline
locality CDFs that motivate the write log (Figs. 5/6).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.config import CACHELINES_PER_PAGE, PAGE_SIZE
from repro.experiments.orchestrator import run_sweep, sweep_product
from repro.experiments.runner import _traces_for, default_records
from repro.sim.stats import LocalityTracker
from repro.ssd.base_cache import SetAssociativePageCache
from repro.workloads.suites import WORKLOAD_NAMES, get_model, representative_four

#: Paper-reported reference points (SS II-C), consumed by the fidelity
#: report (:mod:`repro.figures.fidelity`): the Fig. 2 slowdown range,
#: the Fig. 3 fast-served fraction, and the Fig. 4 memory-boundedness
#: ranges (DRAM and CXL-SSD, min..max over the seven workloads).
PAPER_EXPECTED = {
    "fig2": {"slowdown_min": 1.5, "slowdown_max": 31.4},
    "fig3": {"cssd_fast_fraction": 0.90},
    "fig4": {
        "dram_memory_bound": (0.629, 0.987),
        "cssd_memory_bound": (0.77, 0.998),
    },
}


def fig2_dram_vs_cssd(
    workloads: Optional[Sequence[str]] = None,
    records: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: object = None,
    backend: object = None,
    progress: object = None,
    policy: object = None,
) -> Dict[str, Dict[str, float]]:
    """Fig. 2: normalized execution time of Base-CSSD over DRAM.

    Returns {workload: {"slowdown": x, "dram_ipns": ..., "cssd_ipns": ...}}.
    The paper reports 1.5x-31.4x slowdowns.
    """
    workloads = list(workloads or WORKLOAD_NAMES)
    records = records or default_records()
    sweep = iter(run_sweep(
        sweep_product(workloads, ["DRAM-Only", "Base-CSSD"],
                      records_per_thread=records),
        jobs=jobs,
        cache=cache,
        backend=backend,
        progress=progress,
        policy=policy,
    ))
    rows: Dict[str, Dict[str, float]] = {}
    for wl in workloads:
        dram = next(sweep)
        cssd = next(sweep)
        rows[wl] = {
            "slowdown": dram.speedup_over(cssd),
            "dram_ipns": dram.stats.throughput_ipns,
            "cssd_ipns": cssd.stats.throughput_ipns,
        }
    return rows


def fig3_latency_distribution(
    workloads: Optional[Sequence[str]] = None,
    records: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: object = None,
    backend: object = None,
    progress: object = None,
    policy: object = None,
) -> Dict[str, Dict[str, object]]:
    """Fig. 3: off-chip latency distribution, DRAM vs CXL-SSD.

    Returns, per workload, the latency CDF points plus headline
    percentiles.  The paper's observation: >90% of CXL-SSD requests are
    served fast (SSD DRAM), but the tail reaches hundreds of us (flash,
    GC).
    """
    workloads = list(workloads or representative_four())
    records = records or default_records()
    labelled = (("DRAM", "DRAM-Only"), ("CXL-SSD", "Base-CSSD"))
    sweep = iter(run_sweep(
        sweep_product(workloads, [v for _label, v in labelled],
                      records_per_thread=records),
        jobs=jobs,
        cache=cache,
        backend=backend,
        progress=progress,
        policy=policy,
    ))
    rows: Dict[str, Dict[str, object]] = {}
    for wl in workloads:
        out: Dict[str, object] = {}
        for label, _variant in labelled:
            hist = next(sweep).stats.offchip_latency
            out[label] = {
                "cdf": hist.cdf(),
                "p50_ns": hist.percentile(50),
                "p99_ns": hist.percentile(99),
                "max_ns": hist.max,
                "fast_fraction": hist.fraction_below(300.0),
            }
        rows[wl] = out
    return rows


def fig4_boundedness(
    workloads: Optional[Sequence[str]] = None,
    records: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: object = None,
    backend: object = None,
    progress: object = None,
    policy: object = None,
) -> Dict[str, Dict[str, float]]:
    """Fig. 4: memory- vs compute-bounded cycle fractions.

    The paper: memory-bounded grows from 62.9-98.7% (DRAM) to 77-99.8%
    (CXL-SSD).
    """
    workloads = list(workloads or WORKLOAD_NAMES)
    records = records or default_records()
    sweep = iter(run_sweep(
        sweep_product(workloads, ["DRAM-Only", "Base-CSSD"],
                      records_per_thread=records),
        jobs=jobs,
        cache=cache,
        backend=backend,
        progress=progress,
        policy=policy,
    ))
    rows: Dict[str, Dict[str, float]] = {}
    for wl in workloads:
        dram = next(sweep)
        cssd = next(sweep)
        rows[wl] = {
            "dram_memory_bound": dram.stats.boundedness()["memory"],
            "cssd_memory_bound": cssd.stats.boundedness()["memory"],
        }
    return rows


def _replay_locality(
    workload: str,
    cache_ratio: int,
    records: int,
    seed: int = 42,
    scale: int = 512,
) -> Tuple[LocalityTracker, LocalityTracker]:
    """Metadata replay of one workload through a page cache sized at
    footprint/``cache_ratio``, recording the Fig. 5 (read) and Fig. 6
    (write) locality trackers.

    This reproduces the measurement the paper makes on its baseline: for
    every page read from flash, which fraction of its lines did the host
    touch while it was resident; for every page flushed, which fraction
    was dirty.
    """
    model = get_model(workload, scale=scale, seed=seed)
    # One generation per workload: the trace is identical across the
    # cache ratios, so route it through the runner's memo instead of
    # re-synthesising it for every ratio.
    traces, _mlp = _traces_for(workload, 1, records, scale, seed)
    trace = traces[0]
    cache_pages = max(1, model.pages // cache_ratio)
    cache = SetAssociativePageCache(cache_pages, ways=16)
    reads = LocalityTracker()
    writes = LocalityTracker()

    def retire(entry) -> None:
        reads.record(entry.lines_touched)
        if entry.dirty:
            writes.record(entry.lines_dirty)

    for _gap, is_write, address in trace:
        page = address // PAGE_SIZE
        line = (address // 64) % CACHELINES_PER_PAGE
        entry = cache.lookup(page, touch_line=line)
        if entry is None:
            victim = cache.insert(page, touch_line=line)
            if victim is not None:
                retire(victim)
            entry = cache.peek(page)
        if is_write:
            entry.dirty_mask |= 1 << line
    for entry in list(cache.entries()):
        retire(entry)
    return reads, writes


def fig5_read_locality(
    workloads: Optional[Sequence[str]] = None,
    ratios: Sequence[int] = (2, 8, 32, 128),
    records: Optional[int] = None,
) -> Dict[str, Dict[int, Dict[str, object]]]:
    """Fig. 5: CDF of cacheline-touch ratios of pages read from flash,
    for footprint:cache ratios 1:n.  The paper: most workloads touch
    <40% of lines in >75% of pages."""
    workloads = list(workloads or ["bc", "dlrm", "radix", "ycsb"])
    records = records or default_records() * 4
    out: Dict[str, Dict[int, Dict[str, object]]] = {}
    for wl in workloads:
        out[wl] = {}
        for ratio in ratios:
            reads, _writes = _replay_locality(wl, ratio, records)
            out[wl][ratio] = {
                "cdf": reads.cdf(),
                "pages_below_40pct": reads.fraction_of_pages_below(0.4),
                "mean_ratio": reads.mean_ratio(),
            }
    return out


def fig6_write_locality(
    workloads: Optional[Sequence[str]] = None,
    ratios: Sequence[int] = (2, 8, 32, 128),
    records: Optional[int] = None,
) -> Dict[str, Dict[int, Dict[str, object]]]:
    """Fig. 6: CDF of dirty-line ratios of pages flushed to flash."""
    workloads = list(workloads or ["bc", "dlrm", "radix", "ycsb"])
    records = records or default_records() * 4
    out: Dict[str, Dict[int, Dict[str, object]]] = {}
    for wl in workloads:
        out[wl] = {}
        for ratio in ratios:
            _reads, writes = _replay_locality(wl, ratio, records)
            out[wl][ratio] = {
                "cdf": writes.cdf(),
                "pages_below_40pct": writes.fraction_of_pages_below(0.4),
                "mean_ratio": writes.mean_ratio(),
            }
    return out
