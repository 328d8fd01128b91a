"""Motivation experiments: Figs. 2-6 of the paper (§II-C).

These quantify why naive CXL-SSDs disappoint: end-to-end slowdown versus
DRAM (Fig. 2), the bimodal latency distribution with its flash tail
(Fig. 3), memory-boundedness (Fig. 4), and the per-page cacheline
locality CDFs that motivate the write log (Figs. 5/6).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import CACHELINES_PER_PAGE, PAGE_SIZE
from repro.experiments.orchestrator import SweepJob, sweep_product
from repro.experiments.runner import _traces_for, default_records
from repro.figures.spec import ChartSpec, Figure, bar, fsorted, line, single_bar
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

#: The footprint:cache ratios 1:n of Figs. 5/6.
LOCALITY_RATIOS = (2, 8, 32, 128)
#: The workloads of Figs. 5/6.
LOCALITY_WORKLOADS = ("bc", "dlrm", "radix", "ycsb")


def _dram_vs_cssd(workloads: Sequence[str], records: Optional[int]) -> List[SweepJob]:
    """A DRAM-Only and a Base-CSSD cell per workload (Figs. 2-4)."""
    return sweep_product(workloads, ["DRAM-Only", "Base-CSSD"],
                         records_per_thread=records or default_records())


def _fig2(workloads, _records, results) -> Dict[str, Dict[str, float]]:
    """Fig. 2: normalized execution time of Base-CSSD over DRAM.

    Returns {workload: {"slowdown": x, "dram_ipns": ..., "cssd_ipns": ...}}.
    The paper reports 1.5x-31.4x slowdowns.
    """
    return {
        wl: {
            "slowdown": dram.speedup_over(cssd),
            "dram_ipns": dram.stats.throughput_ipns,
            "cssd_ipns": cssd.stats.throughput_ipns,
        }
        for wl, dram, cssd in zip(workloads, results[::2], results[1::2])
    }


def _fig3(workloads, _records, results) -> Dict[str, Dict[str, object]]:
    """Fig. 3: off-chip latency distribution, DRAM vs CXL-SSD.

    Returns, per workload, the latency CDF points plus headline
    percentiles.  The paper's observation: >90% of CXL-SSD requests are
    served fast (SSD DRAM), but the tail reaches hundreds of us (flash,
    GC).
    """
    rows: Dict[str, Dict[str, object]] = {}
    sweep = iter(results)
    for wl in workloads:
        out: Dict[str, object] = {}
        for label in ("DRAM", "CXL-SSD"):
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


def _fig4(workloads, _records, results) -> Dict[str, Dict[str, float]]:
    """Fig. 4: memory- vs compute-bounded cycle fractions.

    The paper: memory-bounded grows from 62.9-98.7% (DRAM) to 77-99.8%
    (CXL-SSD).
    """
    return {
        wl: {
            "dram_memory_bound": dram.stats.boundedness()["memory"],
            "cssd_memory_bound": cssd.stats.boundedness()["memory"],
        }
        for wl, dram, cssd in zip(workloads, results[::2], results[1::2])
    }


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

    for _gap, is_write, address in trace.records():
        page = address // PAGE_SIZE
        cacheline = (address // 64) % CACHELINES_PER_PAGE
        entry = cache.lookup(page, touch_line=cacheline)
        if entry is None:
            victim = cache.insert(page, touch_line=cacheline)
            if victim is not None:
                retire(victim)
            entry = cache.peek(page)
        if is_write:
            entry.dirty_mask |= 1 << cacheline
    for entry in list(cache.entries()):
        retire(entry)
    return reads, writes


def _locality(which: int):
    """The reduce of Fig. 5 (``which=0``: reads) or Fig. 6 (1: writes):
    per workload and footprint:cache ratio, the CDF of the fraction of
    lines touched (dirtied) per page read from (flushed to) flash.  The
    paper: most workloads touch <40% of lines in >75% of pages."""

    def reduce(workloads, records, _results) -> Dict[str, Dict[int, Dict[str, object]]]:
        records = records or default_records() * 4
        out: Dict[str, Dict[int, Dict[str, object]]] = {}
        for wl in workloads:
            out[wl] = {}
            for ratio in LOCALITY_RATIOS:
                tracker = _replay_locality(wl, ratio, records)[which]
                out[wl][ratio] = {
                    "cdf": tracker.cdf(),
                    "pages_below_40pct": tracker.fraction_of_pages_below(0.4),
                    "mean_ratio": tracker.mean_ratio(),
                }
        return out

    return reduce


# -- charts ------------------------------------------------------------------


def _shape_fig2(data):
    return [single_bar(
        "Fig. 2: Base-CSSD slowdown over DRAM-Only",
        {wl: row["slowdown"] for wl, row in data.items()},
        "slowdown", "normalized execution time (x, lower is better)",
    )]


def _shape_fig3(data):
    charts = []
    for wl, row in data.items():
        charts.append(line(
            f"Fig. 3 ({wl}): off-chip latency CDF",
            {label: row[label]["cdf"] for label in row},
            "latency (ns)", "fraction of requests", log_x=True,
        ))
    return charts


def _shape_fig4(data):
    return [bar(
        "Fig. 4: memory-bounded execution fraction",
        {wl: {"DRAM": row["dram_memory_bound"],
              "CXL-SSD": row["cssd_memory_bound"]}
         for wl, row in data.items()},
        "fraction of cycles memory-bounded",
    )]


def _shape_locality(figure: str, what: str):
    def shape(data):
        charts = []
        for wl, by_ratio in data.items():
            charts.append(line(
                f"{figure} ({wl}): {what} locality CDF",
                {f"1:{ratio}": by_ratio[ratio]["cdf"]
                 for ratio in fsorted(by_ratio)},
                f"fraction of lines {what} per page",
                "cumulative fraction of pages",
                subtitle="one curve per footprint:cache ratio",
            ))
        return charts
    return shape


FIGURES = (
    Figure(ChartSpec("fig2", "Base-CSSD slowdown over DRAM-Only", "SS II-C",
                     "bar", "End-to-end slowdown of a naive CXL-SSD vs DRAM "
                     "(paper: 1.5x-31.4x).", _shape_fig2),
           _fig2, _dram_vs_cssd, tuple(WORKLOAD_NAMES)),
    Figure(ChartSpec("fig3", "Off-chip latency distribution", "SS II-C",
                     "line", "Latency CDFs showing the bimodal fast/flash "
                     "split (one chart per workload, log-x).", _shape_fig3),
           _fig3, _dram_vs_cssd, tuple(representative_four())),
    Figure(ChartSpec("fig4", "Memory-boundedness", "SS II-C", "bar",
                     "Fraction of cycles bounded by memory on DRAM vs "
                     "CXL-SSD.", _shape_fig4),
           _fig4, _dram_vs_cssd, tuple(WORKLOAD_NAMES)),
    Figure(ChartSpec("fig5", "Read cacheline locality", "SS II-C", "line",
                     "CDF of lines touched per page read from flash "
                     "(one chart per workload).",
                     _shape_locality("Fig. 5", "touched")),
           _locality(0), workloads=LOCALITY_WORKLOADS),
    Figure(ChartSpec("fig6", "Write cacheline locality", "SS II-C", "line",
                     "CDF of dirty lines per page flushed to flash "
                     "(one chart per workload).",
                     _shape_locality("Fig. 6", "dirtied")),
           _locality(1), workloads=LOCALITY_WORKLOADS),
)
