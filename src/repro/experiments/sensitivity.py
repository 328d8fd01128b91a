"""Sensitivity studies: Figs. 19-22 (§VI-E/F/G).

Fig. 19/20 sweep the write-log size at fixed total SSD DRAM; Fig. 21
sweeps the SSD DRAM size (host budget and log scaled along, as in the
paper); Fig. 22 swaps the flash timing between ULL/ULL2/SLC/MLC and
varies SkyByte-Full's thread count.

Fig. 19 and Fig. 20 read the same (workload, log size) cells, so a
report that runs both simulates them once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import KB
from repro.experiments.orchestrator import SweepJob
from repro.experiments.runner import default_records
from repro.figures.spec import (ChartSpec, Claim, Figure, bar, check, fsorted,
                                geomean, kib, line, per_workload)
from repro.workloads.suites import WORKLOAD_NAMES

#: Scaled-down analogue of Fig. 19/20's 0.5 MB..256 MB sweep.  The
#: paper's capacities divide by the default scale factor (512); we sweep
#: the same proportional range of the 1 MB SSD DRAM.
FIG19_LOG_SIZES = (16 * KB, 32 * KB, 64 * KB, 128 * KB, 256 * KB)

#: Scaled analogue of Fig. 21's 0.125..2 GB SSD DRAM sweep.
FIG21_DRAM_SIZES = (256 * KB, 512 * KB, 1024 * KB, 2048 * KB, 4096 * KB)
#: The designs of Fig. 21.
FIG21_VARIANTS = ("Base-CSSD", "SkyByte-WP", "SkyByte-Full")

FIG22_TIMINGS = ("ULL", "ULL2", "SLC", "MLC")
#: Fig. 22's designs besides SkyByte-Full, and SkyByte-Full's thread counts.
FIG22_VARIANTS = ("SkyByte-P", "SkyByte-WP")
FIG22_THREADS = (16, 24, 32)


def _log_size_cells(workloads: Sequence[str], records: Optional[int]) -> List[SweepJob]:
    """One SkyByte-Full run per (workload, log size)."""
    records = records or default_records()
    return [
        SweepJob.make(
            wl, "SkyByte-Full", records_per_thread=records, write_log_bytes=size
        )
        for wl in workloads
        for size in FIG19_LOG_SIZES
    ]


def _by_log_size(workloads, results) -> Dict[str, Dict[int, object]]:
    sweep = iter(results)
    return {wl: {size: next(sweep) for size in FIG19_LOG_SIZES}
            for wl in workloads}


def _fig19(workloads, _records, results) -> Dict[str, Dict[int, float]]:
    """Fig. 19: SkyByte-Full execution time vs write-log size (total SSD
    DRAM fixed).  Normalized to the largest log.  Paper shape: a log of
    ~1/8 of SSD DRAM already suffices; tiny logs hurt write-heavy
    workloads."""
    cells = _by_log_size(workloads, results)
    rows: Dict[str, Dict[int, float]] = {}
    for wl in workloads:
        ref_ipns = None
        sweep: Dict[int, float] = {}
        for size in sorted(FIG19_LOG_SIZES, reverse=True):
            ipns = max(cells[wl][size].stats.throughput_ipns, 1e-12)
            if ref_ipns is None:
                ref_ipns = ipns
            sweep[size] = ref_ipns / ipns
        rows[wl] = dict(sorted(sweep.items()))
    return rows


def _fig20(workloads, _records, results) -> Dict[str, Dict[int, float]]:
    """Fig. 20: flash write traffic vs write-log size, normalized to the
    smallest log.  Paper shape: traffic falls steeply as the log (and so
    the coalescing window) grows."""
    cells = _by_log_size(workloads, results)
    rows: Dict[str, Dict[int, float]] = {}
    for wl in workloads:
        ref_rate = None
        sweep: Dict[int, float] = {}
        for size in sorted(FIG19_LOG_SIZES):
            stats = cells[wl][size].stats
            rate = stats.flash_page_writes / max(stats.instructions, 1)
            if ref_rate is None:
                ref_rate = max(rate, 1e-12)
            sweep[size] = rate / ref_rate
        rows[wl] = sweep
    return rows


_FIG21_SIZES = sorted(FIG21_DRAM_SIZES)
_FIG21_REFERENCE = _FIG21_SIZES[len(_FIG21_SIZES) // 2]


def _fig21_cells(workloads: Sequence[str], records: Optional[int]) -> List[SweepJob]:
    records = records or default_records()
    specs = []
    for wl in workloads:
        specs.append(SweepJob.make(
            wl, "SkyByte-Full", records_per_thread=records,
            dram_bytes=_FIG21_REFERENCE, host_budget_bytes=_FIG21_REFERENCE * 4,
        ))
        specs.extend(
            SweepJob.make(
                wl, variant, records_per_thread=records,
                dram_bytes=size, host_budget_bytes=size * 4,
            )
            for variant in FIG21_VARIANTS
            for size in _FIG21_SIZES
        )
    return specs


def _fig21(workloads, _records, results) -> Dict[str, Dict[str, Dict[int, float]]]:
    """Fig. 21: execution time vs SSD DRAM cache size per design.

    As in the paper, the host promotion budget keeps its 4:1 ratio to
    the SSD DRAM, and the write log its 1:8 share.  Normalized to
    SkyByte-Full at the default (middle) size.  Shape: SkyByte-Full wins
    at every size; a small SkyByte beats a much larger Base-CSSD.
    """
    sweep = iter(results)
    rows: Dict[str, Dict[str, Dict[int, float]]] = {}
    for wl in workloads:
        ref = next(sweep)
        ref_ipns = max(ref.stats.throughput_ipns, 1e-12)
        per_variant: Dict[str, Dict[int, float]] = {}
        for variant in FIG21_VARIANTS:
            per_variant[variant] = {
                size: ref_ipns / max(next(sweep).stats.throughput_ipns, 1e-12)
                for size in _FIG21_SIZES
            }
        rows[wl] = per_variant
    return rows


def _fig22_cells(workloads: Sequence[str], records: Optional[int]) -> List[SweepJob]:
    records = records or default_records()
    specs = []
    for wl in workloads:
        specs.append(SweepJob.make(
            wl, "SkyByte-Full", records_per_thread=records, threads=24,
            timing="ULL",
        ))
        for timing in FIG22_TIMINGS:
            specs.extend(
                SweepJob.make(
                    wl, variant, records_per_thread=records, timing=timing
                )
                for variant in FIG22_VARIANTS
            )
            specs.extend(
                SweepJob.make(
                    wl, "SkyByte-Full", records_per_thread=records,
                    threads=threads, timing=timing,
                )
                for threads in FIG22_THREADS
            )
    return specs


def _fig22(workloads, _records, results) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Fig. 22: performance with ULL/ULL2/SLC/MLC flash.

    Returns {workload: {timing: {design: normalized_time}}} where designs
    include SkyByte-P/WP and SkyByte-Full at several thread counts,
    normalized to SkyByte-Full-24 with ULL flash.  Paper shape: slower
    flash widens SkyByte's advantage, and more threads keep hiding the
    longer latency.
    """
    sweep = iter(results)
    rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    for wl in workloads:
        ref = next(sweep)
        ref_ipns = max(ref.stats.throughput_ipns, 1e-12)
        per_timing: Dict[str, Dict[str, float]] = {}
        for timing in FIG22_TIMINGS:
            cell: Dict[str, float] = {}
            for variant in FIG22_VARIANTS:
                r = next(sweep)
                cell[variant] = ref_ipns / max(r.stats.throughput_ipns, 1e-12)
            for threads in FIG22_THREADS:
                r = next(sweep)
                cell[f"SkyByte-Full-{threads}"] = ref_ipns / max(
                    r.stats.throughput_ipns, 1e-12
                )
            per_timing[timing] = cell
        rows[wl] = per_timing
    return rows


# -- charts ------------------------------------------------------------------


def _shape_fig19(data):
    return [line(
        "Fig. 19: performance vs write-log size",
        {wl: [(kib(s), row[s]) for s in fsorted(row)]
         for wl, row in data.items()},
        "write log size (KiB)", "normalized execution time (largest log = 1)",
        log_x=True,
    )]


def _shape_fig20(data):
    return [line(
        "Fig. 20: flash write traffic vs write-log size",
        {wl: [(kib(s), row[s]) for s in fsorted(row)]
         for wl, row in data.items()},
        "write log size (KiB)", "normalized flash writes (smallest log = 1)",
        log_x=True,
    )]


def _shape_fig21(data):
    charts = []
    for wl, by_variant in data.items():
        charts.append(line(
            f"Fig. 21 ({wl}): performance vs SSD DRAM size",
            {variant: [(kib(s), sweep[s]) for s in fsorted(sweep)]
             for variant, sweep in by_variant.items()},
            "SSD DRAM (KiB)",
            "normalized execution time (SkyByte-Full @ default = 1)",
            log_x=True,
        ))
    return charts


def _shape_fig22(data):
    workloads = list(data)
    timings = list(next(iter(data.values()), {}))
    designs = list(next(iter(data[workloads[0]].values()), {})) \
        if workloads else []
    rows = {
        timing: {
            design: geomean([data[wl][timing][design] for wl in workloads])
            for design in designs
        }
        for timing in timings
    }
    return [bar(
        "Fig. 22: flash technology sensitivity",
        rows, "normalized execution time (SkyByte-Full-24 @ ULL = 1)",
        subtitle="geometric mean across workloads",
    )]


# -- what the paper says -----------------------------------------------------


def _small_log_suffices(row: dict):
    default, small = row[str(128 * KB)], row[str(16 * KB)]
    return check(default <= small * 1.3 or default < 1.35,
                 at_128k=default, at_16k=small)


def _full_never_loses(data: dict):
    for wl, by_variant in data.items():
        full, base = by_variant["SkyByte-Full"], by_variant["Base-CSSD"]
        for size in (512 * KB, 1024 * KB, 2048 * KB):
            f, b = full[str(size)], base[str(size)]
            yield check(f <= b * 1.05, **{f"{wl} full@{size // KB}K": f,
                                          f"{wl} base@{size // KB}K": b})


def _small_skybyte_vs_large_base(row: dict):
    small = row["SkyByte-Full"][str(512 * KB)]
    large = row["Base-CSSD"][str(2048 * KB)]
    return check(small <= large * 1.6, full_512k=small, base_2048k=large)


def _mlc_penalty(row: dict, design: str) -> float:
    return row["MLC"][design] / max(row["ULL"][design], 1e-9)


FIG19_CLAIMS = (
    Claim("the default 128 KB log is within 30% of a 16 KB one's time, "
          "or under 1.35x the largest log's",
          per_workload(_small_log_suffices)),
)
FIG20_CLAIMS = (
    Claim("the biggest log writes no more than the smallest (within 5%)",
          per_workload(lambda r: check(
              r[str(256 * KB)] <= r[str(16 * KB)] * 1.05,
              at_256k=r[str(256 * KB)], at_16k=r[str(16 * KB)]))),
)
FIG21_CLAIMS = (
    Claim("SkyByte-Full never loses to Base-CSSD at the same DRAM size "
          "(within 5%, 512 KB-2 MB)", _full_never_loses),
    Claim("SkyByte-Full at 512 KB is within 1.6x of Base-CSSD at 2 MB",
          per_workload(_small_skybyte_vs_large_base)),
)
FIG22_CLAIMS = (
    Claim("MLC flash does not speed SkyByte-WP up (>= 0.9x its ULL time)",
          per_workload(lambda r: check(
              r["MLC"]["SkyByte-WP"] >= r["ULL"]["SkyByte-WP"] * 0.9,
              wp_mlc=r["MLC"]["SkyByte-WP"], wp_ull=r["ULL"]["SkyByte-WP"]))),
    Claim("SkyByte-Full-24's MLC penalty is within 1.5x SkyByte-WP's",
          per_workload(lambda r: check(
              _mlc_penalty(r, "SkyByte-Full-24")
              <= _mlc_penalty(r, "SkyByte-WP") * 1.5,
              full_penalty=_mlc_penalty(r, "SkyByte-Full-24"),
              wp_penalty=_mlc_penalty(r, "SkyByte-WP")))),
)


_ALL = tuple(WORKLOAD_NAMES)

FIGURES = (
    Figure(ChartSpec("fig19", "Write-log size: performance", "SS VI-E",
                     "line", "Execution time vs log size at fixed total SSD "
                     "DRAM.", _shape_fig19),
           _fig19, _log_size_cells, _ALL, claims=FIG19_CLAIMS),
    Figure(ChartSpec("fig20", "Write-log size: traffic", "SS VI-E", "line",
                     "Flash write traffic vs log size.", _shape_fig20),
           _fig20, _log_size_cells, _ALL, claims=FIG20_CLAIMS),
    Figure(ChartSpec("fig21", "SSD DRAM size", "SS VI-F", "line",
                     "Execution time vs SSD DRAM capacity (one chart per "
                     "workload).", _shape_fig21),
           _fig21, _fig21_cells, _ALL, claims=FIG21_CLAIMS),
    Figure(ChartSpec("fig22", "Flash technology", "SS VI-G", "bar",
                     "ULL/ULL2/SLC/MLC flash sensitivity (geomean across "
                     "workloads).", _shape_fig22),
           _fig22, _fig22_cells, _ALL, claims=FIG22_CLAIMS),
)
