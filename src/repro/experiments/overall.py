"""Headline evaluation experiments: Figs. 14-18 and Table III (§VI-B/C/D).

Fig. 14 is the main ablation across the eight designs; Fig. 15 sweeps
thread counts; Fig. 16 breaks requests into the H-R/W, S-R-H, S-R-M and
S-W classes; Fig. 17 decomposes AMAT; Fig. 18 compares flash write
traffic; Table III reports SkyByte-WP's average flash read latency.

Because design variants run different thread counts (24 threads with the
coordinated context switch, 8 otherwise) over per-thread traces, all
"normalized execution time" numbers here are time-per-instruction ratios
-- exactly the paper's metric once its fixed program section is divided
out.

Figs. 14, 16, 17, 18 and Table III read overlapping cells of one
workload x design grid; a report plans every figure's cells together,
so each distinct cell runs once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.orchestrator import SweepJob, sweep_product
from repro.experiments.runner import default_records
from repro.figures.spec import (AMAT_COMPONENTS, ChartSpec, Claim, Expectation,
                                Figure, aggregate, bar, check, fsorted,
                                geomean, line, per_workload, single_bar,
                                stacked, value_at)
from repro.variants import MAIN_VARIANTS
from repro.workloads.suites import WORKLOAD_NAMES

#: Paper-reported reference points (SS VI-B/C), the expectations below:
#: Fig. 14's 6.11x geometric-mean speedup of SkyByte-Full over
#: Base-CSSD, and Table III's per-workload average flash read latency
#: in microseconds.
PAPER_EXPECTED = {
    "fig14": {"skybyte_full_geomean_speedup": 6.11},
    "table3": {
        "read_latency_us": {
            "bc": 3.5, "bfs-dense": 25.7, "dlrm": 3.4, "radix": 4.9,
            "srad": 22.5, "tpcc": 19.6, "ycsb": 3.3,
        },
    },
}

#: SkyByte-Full's thread counts in Fig. 15.
FIG15_THREADS = (8, 16, 24, 32, 40, 48)
#: The designs of Fig. 17.
FIG17_VARIANTS = ("Base-CSSD", "SkyByte-P", "SkyByte-W", "SkyByte-WP",
                  "SkyByte-Full", "DRAM-Only")
#: The designs of Fig. 18: DRAM-Only writes no flash.
FIG18_VARIANTS = tuple(MAIN_VARIANTS[:-1])


def grid_cells(variants: Sequence[str]):
    """The cells function of a plain workload x ``variants`` grid."""

    def cells(workloads: Sequence[str], records: Optional[int]) -> List[SweepJob]:
        return sweep_product(workloads, variants,
                             records_per_thread=records or default_records())

    return cells


def normalized_time(workloads, variants, results) -> Dict[str, Dict[str, float]]:
    """{workload: {variant: time per instruction / the first variant's}}
    over a workload x variant grid's results."""
    sweep = iter(results)
    rows: Dict[str, Dict[str, float]] = {}
    for wl in workloads:
        base = None
        per_variant: Dict[str, float] = {}
        for variant in variants:
            r = next(sweep)
            if base is None:
                base = r
            per_variant[variant] = 1.0 / max(r.speedup_over(base), 1e-12)
        rows[wl] = per_variant
    return rows


def _fig14(workloads, _records, results) -> Dict[str, Dict[str, float]]:
    """Fig. 14: normalized execution time of every design vs Base-CSSD.

    Returns {workload: {variant: normalized_time}} (lower is better,
    Base-CSSD = 1.0).  Paper shape: SkyByte-Full best of the CXL designs
    (6.11x mean speedup), DRAM-Only the ideal floor, and each mechanism
    (P, C, W) individually above the baseline.
    """
    return normalized_time(workloads, MAIN_VARIANTS, results)


def _fig15_cells(workloads: Sequence[str], records: Optional[int]) -> List[SweepJob]:
    records = records or default_records()
    specs = []
    for wl in workloads:
        specs.append(
            SweepJob.make(wl, "SkyByte-WP", records_per_thread=records, threads=8)
        )
        specs.extend(
            SweepJob.make(
                wl, "SkyByte-Full", records_per_thread=records, threads=threads
            )
            for threads in FIG15_THREADS
        )
    return specs


def _fig15(workloads, _records, results) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Fig. 15: SkyByte-Full throughput and SSD bandwidth vs threads.

    Normalized to SkyByte-WP at 8 threads, as in the paper.  Shape:
    throughput tracks SSD bandwidth utilisation; flash-read-heavy
    workloads scale further before the switch overhead dominates.
    """
    sweep = iter(results)
    rows: Dict[str, Dict[int, Dict[str, float]]] = {}
    for wl in workloads:
        baseline = next(sweep)
        base_ipns = max(baseline.stats.throughput_ipns, 1e-12)
        base_bw = max(baseline.stats.flash_page_reads
                      / max(baseline.stats.execution_ns, 1.0), 1e-12)
        per_threads: Dict[int, Dict[str, float]] = {}
        for threads in FIG15_THREADS:
            r = next(sweep)
            flash_bw = r.stats.flash_page_reads / max(r.stats.execution_ns, 1.0)
            per_threads[threads] = {
                "throughput": r.stats.throughput_ipns / base_ipns,
                "ssd_bandwidth": flash_bw / base_bw,
                "context_switches": float(r.stats.context_switches),
            }
        rows[wl] = per_threads
    return rows


def _fig16(workloads, _records, results) -> Dict[str, Dict[str, float]]:
    """Fig. 16: fraction of requests per class (H-R/W, S-R-H, S-R-M, S-W)
    under the full SkyByte design."""
    return {wl: r.stats.request_breakdown() for wl, r in zip(workloads, results)}


def _fig17(workloads, _records, results) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Fig. 17: AMAT and its component breakdown per design.

    Returns {workload: {variant: {"amat_ns": ..., components...}}}.
    Shape: the flash component shrinks with W (write log) and P
    (promotion); SkyByte-Full approaches DRAM-Only.
    """
    sweep = iter(results)
    rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    for wl in workloads:
        per_variant: Dict[str, Dict[str, float]] = {}
        for variant in FIG17_VARIANTS:
            r = next(sweep)
            entry = {"amat_ns": r.stats.amat_ns}
            entry.update(r.stats.amat_breakdown())
            per_variant[variant] = entry
        rows[wl] = per_variant
    return rows


def _fig18(workloads, _records, results) -> Dict[str, Dict[str, float]]:
    """Fig. 18: flash write traffic normalized to Base-CSSD.

    Traffic is measured per instruction so designs running different
    thread counts compare fairly.  Shape: the write log (W) cuts traffic
    the most; promotion (P) also helps; context switching adds a little
    back through extra contention.
    """
    sweep = iter(results)
    rows: Dict[str, Dict[str, float]] = {}
    for wl in workloads:
        base_rate = None
        per_variant: Dict[str, float] = {}
        for variant in FIG18_VARIANTS:
            r = next(sweep)
            rate = r.stats.flash_page_writes / max(r.stats.instructions, 1)
            if base_rate is None:
                base_rate = max(rate, 1e-12)
            per_variant[variant] = rate / base_rate
        rows[wl] = per_variant
    return rows


def _table3(workloads, _records, results) -> Dict[str, float]:
    """Table III: average flash read latency (us) under SkyByte-WP.

    Paper values: bc 3.5, bfs-dense 25.7, dlrm 3.4, radix 4.9, srad 22.5,
    tpcc 19.6, ycsb 3.3 -- i.e. queueing/compaction interference pushes
    some workloads well above the 3 us device latency.
    """
    return {
        wl: r.stats.flash_read_latency.mean / 1000.0
        for wl, r in zip(workloads, results)
    }


# -- charts ------------------------------------------------------------------


def _shape_fig14(data):
    return [bar(
        "Fig. 14: normalized execution time of every design",
        data, "normalized execution time (Base-CSSD = 1)",
    )]


def _shape_fig15(data):
    charts = []
    for metric, label in (("throughput", "normalized throughput"),
                          ("ssd_bandwidth", "normalized SSD bandwidth")):
        charts.append(line(
            f"Fig. 15: SkyByte-Full {label} vs threads",
            {wl: [(float(t), row[t][metric]) for t in fsorted(row)]
             for wl, row in data.items()},
            "threads", f"{label} (SkyByte-WP@8 = 1)",
        ))
    return charts


def _shape_fig16(data):
    return [stacked(
        "Fig. 16: request class breakdown under SkyByte-Full",
        data, "fraction of requests",
        subtitle="stacked per workload: H-R/W + S-R-H + S-R-M + S-W = 1",
    )]


def _shape_fig17(data):
    """One stacked chart per workload: AMAT decomposed into its
    components per design, the paper's Fig. 17 encoding."""
    charts = []
    for wl, by_variant in data.items():
        charts.append(stacked(
            f"Fig. 17 ({wl}): AMAT decomposition per design",
            {variant: {c: row.get(c, 0.0) for c in AMAT_COMPONENTS}
             for variant, row in by_variant.items()},
            "AMAT (ns)",
            series_order=AMAT_COMPONENTS,
        ))
    return charts


def _shape_fig18(data):
    return [bar(
        "Fig. 18: flash write traffic per design",
        data, "flash writes per instruction (Base-CSSD = 1)",
    )]


def _shape_table3(data):
    return [single_bar(
        "Table III: average flash read latency under SkyByte-WP",
        data, "flash read latency", "latency (us)",
    )]


# -- what the paper says -----------------------------------------------------


def _full_speedup(data: dict):
    speedups = []
    for row in data.values():
        normalized = row.get("SkyByte-Full")
        if normalized:
            speedups.append(1.0 / float(normalized))
    return aggregate(speedups, "geomean")


FIG14_EXPECTED = (
    Expectation("SkyByte-Full geomean speedup (x)",
                PAPER_EXPECTED["fig14"]["skybyte_full_geomean_speedup"],
                _full_speedup, note="geomean of 1/normalized time"),
)
TABLE3_EXPECTED = tuple(
    Expectation(f"flash read latency, {workload} (us)", paper_us,
                value_at(workload))
    for workload, paper_us in PAPER_EXPECTED["table3"]["read_latency_us"].items()
)


def _speedups(data: dict) -> Dict[str, float]:
    """Fig. 14: each design's geomean speedup over Base-CSSD."""
    return {v: geomean([1.0 / data[wl][v] for wl in data])
            for v in MAIN_VARIANTS}


def _speedup_claim(text: str, test, *variants: str) -> Claim:
    """A claim over Fig. 14's geomean speedups ``s``, showing those of
    ``variants``."""

    def run(data: dict):
        s = _speedups(data)
        return [check(test(s), **{v: s[v] for v in variants})]

    return Claim(text, run)


FIG14_CLAIMS = (
    _speedup_claim("DRAM-Only > SkyByte-Full > Base-CSSD (geomean speedup)",
                   lambda s: s["DRAM-Only"] > s["SkyByte-Full"] > 1.0,
                   "DRAM-Only", "SkyByte-Full"),
    _speedup_claim("SkyByte-Full is within 5% of SkyByte-WP or better",
                   lambda s: s["SkyByte-Full"] >= s["SkyByte-WP"] * 0.95,
                   "SkyByte-Full", "SkyByte-WP"),
    _speedup_claim("SkyByte-CP beats SkyByte-P",
                   lambda s: s["SkyByte-CP"] > s["SkyByte-P"],
                   "SkyByte-CP", "SkyByte-P"),
    _speedup_claim("SkyByte-C beats Base-CSSD",
                   lambda s: s["SkyByte-C"] > 1.0, "SkyByte-C"),
    _speedup_claim("SkyByte-P is no more than 2% behind Base-CSSD",
                   lambda s: s["SkyByte-P"] > 0.98, "SkyByte-P"),
)


def _scales_past_8_threads(row: dict):
    best = max(point["throughput"] for point in row.values())
    return check(best >= row["8"]["throughput"] * 0.95,
                 best=best, at_8=row["8"]["throughput"])


FIG15_CLAIMS = (
    Claim("oversubscribing with switching matches or beats 8 threads "
          "(within 5%)", per_workload(_scales_past_8_threads)),
)


def _graph_keeps_more_flash_misses(data: dict):
    bfs, tpcc = data["bfs-dense"]["S-R-M"], data["tpcc"]["S-R-M"]
    return [check(bfs > tpcc, bfs_dense=bfs, tpcc=tpcc)]


FIG16_CLAIMS = (
    Claim("the request classes sum to 1",
          per_workload(lambda r: check(abs(sum(r.values()) - 1.0) < 1e-6,
                                       total=sum(r.values())))),
    Claim("flash-bound read misses are fewer than SSD-DRAM and host hits",
          per_workload(lambda r: check(
              r["S-R-M"] < r["S-R-H"] + r["H-R/W"], s_r_m=r["S-R-M"],
              hits=r["S-R-H"] + r["H-R/W"]))),
    Claim("bfs-dense keeps a larger flash-bound share than tpcc",
          _graph_keeps_more_flash_misses),
)


def _amat(row: dict, variant: str) -> float:
    return row[variant]["amat_ns"]


FIG17_CLAIMS = (
    Claim("SkyByte-Full improves AMAT over Base-CSSD",
          per_workload(lambda r: check(
              _amat(r, "SkyByte-Full") < _amat(r, "Base-CSSD"),
              full=_amat(r, "SkyByte-Full"), base=_amat(r, "Base-CSSD")))),
    Claim("DRAM-Only's AMAT stays ahead of SkyByte-Full's",
          per_workload(lambda r: check(
              _amat(r, "DRAM-Only") < _amat(r, "SkyByte-Full"),
              dram=_amat(r, "DRAM-Only"), full=_amat(r, "SkyByte-Full")))),
    Claim("the flash component shrinks from Base-CSSD to SkyByte-Full",
          per_workload(lambda r: check(
              r["SkyByte-Full"]["Flash"] <= r["Base-CSSD"]["Flash"],
              full=r["SkyByte-Full"]["Flash"], base=r["Base-CSSD"]["Flash"]))),
)


def _full_traffic_reduction(data: dict):
    reduction = geomean([1.0 / max(data[wl]["SkyByte-Full"], 1e-9)
                         for wl in data])
    return [check(reduction > 1.5, reduction=reduction)]


FIG18_CLAIMS = (
    Claim("SkyByte-Full cuts flash write traffic on every workload",
          per_workload(lambda r: check(r["SkyByte-Full"] < 1.0,
                                       full=r["SkyByte-Full"]))),
    Claim("promotion alone adds no more than 5% traffic",
          per_workload(lambda r: check(r["SkyByte-P"] <= 1.05,
                                       p=r["SkyByte-P"]))),
    Claim("SkyByte-Full's geomean traffic reduction is over 1.5x",
          _full_traffic_reduction),
)

#: The device read latency Table III's averages cannot go below (us).
DEVICE_READ_US = 3.0


def _latency_spread(data: dict):
    lo, hi = min(data.values()), max(data.values())
    return [check(hi > lo * 1.05, max_us=hi, min_us=lo)]


TABLE3_CLAIMS = (
    Claim("every average is at least the 3 us device read latency",
          per_workload(lambda us: check(us >= DEVICE_READ_US, us=us))),
    Claim("interference spreads the workloads apart (max > 1.05 x min)",
          _latency_spread),
)


_ALL = tuple(WORKLOAD_NAMES)

FIGURES = (
    Figure(ChartSpec("fig14", "Overall performance", "SS VI-B", "bar",
                     "Normalized execution time of every design vs "
                     "Base-CSSD (paper: SkyByte-Full 6.11x mean speedup).",
                     _shape_fig14),
           _fig14, grid_cells(MAIN_VARIANTS), _ALL, FIG14_EXPECTED,
           FIG14_CLAIMS),
    Figure(ChartSpec("fig15", "Thread scaling", "SS VI-C", "line",
                     "Throughput and SSD bandwidth vs thread count, "
                     "normalized to SkyByte-WP at 8 threads.", _shape_fig15),
           _fig15, _fig15_cells, _ALL, claims=FIG15_CLAIMS),
    Figure(ChartSpec("fig16", "Request breakdown", "SS VI-C", "stacked",
                     "Fractions of H-R/W, S-R-H, S-R-M and S-W requests, "
                     "stacked per workload.", _shape_fig16),
           _fig16, grid_cells(["SkyByte-Full"]), _ALL, claims=FIG16_CLAIMS),
    Figure(ChartSpec("fig17", "AMAT decomposition", "SS VI-C", "stacked",
                     "Average memory access time stacked into its "
                     "host-DRAM/protocol/indexing/SSD-DRAM/flash components "
                     "(one chart per workload).", _shape_fig17),
           _fig17, grid_cells(FIG17_VARIANTS), _ALL, claims=FIG17_CLAIMS),
    Figure(ChartSpec("fig18", "Flash write traffic", "SS VI-D", "bar",
                     "Flash writes per instruction normalized to Base-CSSD.",
                     _shape_fig18),
           _fig18, grid_cells(FIG18_VARIANTS), _ALL, claims=FIG18_CLAIMS),
    Figure(ChartSpec("table3", "Flash read latency", "SS VI-C", "bar",
                     "Average flash read latency in us (paper: 3.3-25.7 us).",
                     _shape_table3),
           _table3, grid_cells(["SkyByte-WP"]), _ALL, TABLE3_EXPECTED,
           TABLE3_CLAIMS),
)
