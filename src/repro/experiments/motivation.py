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
from repro.figures.spec import (ChartSpec, Claim, Expectation, Figure,
                                aggregate, bar, check, fsorted, line,
                                per_workload, single_bar)
from repro.sim.stats import LocalityTracker
from repro.ssd.base_cache import SetAssociativePageCache
from repro.workloads.suites import WORKLOAD_NAMES, get_model, representative_four

#: Paper-reported reference points (SS II-C), the figures' expectations
#: below: the Fig. 2 slowdown range,
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


# -- what the paper says -----------------------------------------------------


def _over_workloads(field: str, how: str):
    """An extractor: ``how`` of ``field`` over the workloads' rows."""

    def extract(data: dict):
        return aggregate([row.get(field) for row in data.values()], how)

    return extract


def _cssd_fast_fraction(data: dict):
    return aggregate(
        [row.get("CXL-SSD", {}).get("fast_fraction") for row in data.values()],
        "mean",
    )


FIG2_EXPECTED = (
    Expectation("min slowdown over DRAM", PAPER_EXPECTED["fig2"]["slowdown_min"],
                _over_workloads("slowdown", "min"),
                note="min over the workloads present"),
    Expectation("max slowdown over DRAM", PAPER_EXPECTED["fig2"]["slowdown_max"],
                _over_workloads("slowdown", "max"),
                note="max over the workloads present"),
)
FIG3_EXPECTED = (
    Expectation("CXL-SSD fast-served fraction",
                PAPER_EXPECTED["fig3"]["cssd_fast_fraction"], _cssd_fast_fraction,
                pass_tol=0.1, warn_tol=0.5,
                note="mean fraction of requests under 300 ns"),
)
FIG4_EXPECTED = tuple(
    Expectation(f"memory-bound fraction, {label} ({how})",
                PAPER_EXPECTED["fig4"][field][i], _over_workloads(field, how))
    for field, label in (("dram_memory_bound", "DRAM"),
                         ("cssd_memory_bound", "CXL-SSD"))
    for i, how in enumerate(("min", "max"))
)


def _slowdown_spread(data: dict):
    slowdowns = [row["slowdown"] for row in data.values()]
    spread = max(slowdowns) / min(slowdowns)
    return [check(spread > 2.0, max_over_min=spread)]


FIG2_CLAIMS = (
    Claim("every workload is over 1.2x slower on Base-CSSD than on DRAM",
          per_workload(lambda r: check(r["slowdown"] > 1.2,
                                       slowdown=r["slowdown"]))),
    Claim("the worst slowdown is over 2x the best",
          _slowdown_spread),
    Claim("bfs-dense slows down more than tpcc",
          lambda d: [check(
              d["bfs-dense"]["slowdown"] > d["tpcc"]["slowdown"],
              bfs_dense=d["bfs-dense"]["slowdown"],
              tpcc=d["tpcc"]["slowdown"])]),
)
FIG3_CLAIMS = (
    Claim("DRAM's latency tail stays under 10 us",
          per_workload(lambda r: check(r["DRAM"]["max_ns"] < 10_000,
                                       dram_max_ns=r["DRAM"]["max_ns"]))),
    Claim("the CXL-SSD's latency tail reaches past 3 us (flash scale)",
          per_workload(lambda r: check(r["CXL-SSD"]["max_ns"] > 3_000,
                                       cssd_max_ns=r["CXL-SSD"]["max_ns"]))),
    Claim("most CXL-SSD requests are still served fast (fraction > 0.5)",
          per_workload(lambda r: check(
              r["CXL-SSD"]["fast_fraction"] > 0.5,
              fast_fraction=r["CXL-SSD"]["fast_fraction"]))),
)
FIG4_CLAIMS = (
    Claim("the CXL-SSD is at least as memory-bound as DRAM (within 0.02)",
          per_workload(lambda r: check(
              r["cssd_memory_bound"] >= r["dram_memory_bound"] - 0.02,
              cssd=r["cssd_memory_bound"], dram=r["dram_memory_bound"]))),
    Claim("every workload is over 70% memory-bound on the CXL-SSD",
          per_workload(lambda r: check(r["cssd_memory_bound"] > 0.7,
                                       cssd=r["cssd_memory_bound"]))),
)


def _sparse_reads(data: dict):
    for wl in ("bc", "dlrm", "ycsb"):
        below = data[wl]["128"]["pages_below_40pct"]
        yield check(below > 0.6, **{f"{wl} 1:128 below_40pct": below})


FIG5_CLAIMS = (
    Claim("bc, dlrm and ycsb touch under 40% of the lines of over 60% of "
          "pages at 1:128", _sparse_reads),
    Claim("a 1:128 cache is at least as sparse as a 1:2 one (within 0.05)",
          per_workload(lambda r: check(
              r["128"]["mean_ratio"] <= r["2"]["mean_ratio"] + 0.05,
              mean_ratio_128=r["128"]["mean_ratio"],
              mean_ratio_2=r["2"]["mean_ratio"]))),
)
FIG6_CLAIMS = (
    Claim("at 1:128, over half the flushed pages are under 40% dirty",
          per_workload(lambda r: check(
              r["128"]["pages_below_40pct"] > 0.5,
              below_40pct=r["128"]["pages_below_40pct"]))),
    Claim("at 1:128, flushed pages are under half dirty on average",
          per_workload(lambda r: check(r["128"]["mean_ratio"] < 0.5,
                                       mean_ratio=r["128"]["mean_ratio"]))),
)


FIGURES = (
    Figure(ChartSpec("fig2", "Base-CSSD slowdown over DRAM-Only", "SS II-C",
                     "bar", "End-to-end slowdown of a naive CXL-SSD vs DRAM "
                     "(paper: 1.5x-31.4x).", _shape_fig2),
           _fig2, _dram_vs_cssd, tuple(WORKLOAD_NAMES), FIG2_EXPECTED,
           FIG2_CLAIMS),
    Figure(ChartSpec("fig3", "Off-chip latency distribution", "SS II-C",
                     "line", "Latency CDFs showing the bimodal fast/flash "
                     "split (one chart per workload, log-x).", _shape_fig3),
           _fig3, _dram_vs_cssd, tuple(representative_four()), FIG3_EXPECTED,
           FIG3_CLAIMS),
    Figure(ChartSpec("fig4", "Memory-boundedness", "SS II-C", "bar",
                     "Fraction of cycles bounded by memory on DRAM vs "
                     "CXL-SSD.", _shape_fig4),
           _fig4, _dram_vs_cssd, tuple(WORKLOAD_NAMES), FIG4_EXPECTED,
           FIG4_CLAIMS),
    Figure(ChartSpec("fig5", "Read cacheline locality", "SS II-C", "line",
                     "CDF of lines touched per page read from flash "
                     "(one chart per workload).",
                     _shape_locality("Fig. 5", "touched")),
           _locality(0), workloads=LOCALITY_WORKLOADS, claims=FIG5_CLAIMS),
    Figure(ChartSpec("fig6", "Write cacheline locality", "SS II-C", "line",
                     "CDF of dirty lines per page flushed to flash "
                     "(one chart per workload).",
                     _shape_locality("Fig. 6", "dirtied")),
           _locality(1), workloads=LOCALITY_WORKLOADS, claims=FIG6_CLAIMS),
)
