"""Ablations of this reproduction's own design choices.

DESIGN.md calls out several modelling/design decisions beyond the
paper's named variants; these sweeps quantify them:

* baseline sequential prefetching (Base-CSSD's published optimisation),
* the promotion hotness threshold (§III-C tracks counts vs a threshold),
* the baseline's dirty-page persistence interval (the block-durability
  semantics SkyByte's battery-backed log escapes),
* the scheduling quantum backstop.

All cells run through the orchestrator (``ssd_overrides`` carries the
ablated knob), so they parallelise and cache like every other sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.orchestrator import SweepJob
from repro.experiments.runner import default_records
from repro.figures.spec import ChartSpec, Figure, fsorted, line, single_bar

#: Promotion hotness thresholds swept on ycsb.
PROMOTION_THRESHOLDS = (8, 24, 64, 256)
#: Dirty-flush intervals (us) swept on tpcc; 0 never flushes.
FLUSH_INTERVALS_US = (50, 100, 500, 0)


def _prefetch_cells(workloads: Sequence[str], records: Optional[int]) -> List[SweepJob]:
    records = records or default_records()
    return [
        SweepJob.make(
            wl, "Base-CSSD", records_per_thread=records,
            ssd_overrides={"prefetch_depth": depth},
        )
        for wl in workloads
        for depth in (1, 0)
    ]


def _prefetch(workloads, _records, results) -> Dict[str, Dict[str, float]]:
    """Base-CSSD with and without next-page prefetch.

    Expectation: streaming workloads (srad) lose noticeably without the
    prefetcher; pointer-chasing ones (bc) barely notice.
    """
    rows: Dict[str, Dict[str, float]] = {}
    for wl, with_pf, without in zip(workloads, results[::2], results[1::2]):
        rows[wl] = {
            "with_prefetch_ipns": with_pf.stats.throughput_ipns,
            "without_prefetch_ipns": without.stats.throughput_ipns,
            "prefetch_gain": with_pf.stats.throughput_ipns
            / max(without.stats.throughput_ipns, 1e-12),
        }
    return rows


def _promotion_cells(_workloads, records: Optional[int]) -> List[SweepJob]:
    records = records or default_records()
    return [
        SweepJob.make(
            "ycsb", "SkyByte-P", records_per_thread=records,
            ssd_overrides={"promotion_threshold": threshold},
        )
        for threshold in PROMOTION_THRESHOLDS
    ]


def _promotion(_workloads, _records, results) -> Dict[int, Dict[str, float]]:
    """How the §III-C hotness threshold trades promotion precision
    against churn: too low promotes lukewarm pages (migration overhead),
    too high leaves hot pages on flash."""
    rows: Dict[int, Dict[str, float]] = {}
    for threshold, result in zip(PROMOTION_THRESHOLDS, results):
        stats = result.stats
        rows[threshold] = {
            "ipns": stats.throughput_ipns,
            "pages_promoted": float(stats.pages_promoted),
            "pages_demoted": float(stats.pages_demoted),
            "host_served": stats.request_breakdown()["H-R/W"],
        }
    return rows


def _persistence_cells(_workloads, records: Optional[int]) -> List[SweepJob]:
    records = records or default_records()
    return [
        SweepJob.make(
            "tpcc", "Base-CSSD", records_per_thread=records,
            ssd_overrides={"dirty_flush_interval_ns": interval * 1000.0},
        )
        for interval in FLUSH_INTERVALS_US
    ]


def _persistence(_workloads, _records, results) -> Dict[float, Dict[str, float]]:
    """The baseline's dirty-flush interval: tighter durability means more
    flash programs (0 disables the flush entirely -- the volatile-cache
    upper bound)."""
    rows: Dict[float, Dict[str, float]] = {}
    for interval, result in zip(FLUSH_INTERVALS_US, results):
        stats = result.stats
        rows[interval] = {
            "ipns": stats.throughput_ipns,
            "flash_writes_per_Mi": stats.flash_page_writes
            / max(stats.instructions / 1e6, 1e-12),
        }
    return rows


# -- charts ------------------------------------------------------------------


def _shape_prefetch(data):
    return [single_bar(
        "Ablation: baseline sequential prefetch gain",
        {wl: row["prefetch_gain"] for wl, row in data.items()},
        "prefetch gain", "throughput ratio (with / without prefetch)",
    )]


def _shape_promotion(data):
    return [line(
        "Ablation: promotion hotness threshold",
        {"throughput": [(float(t), data[t]["ipns"])
                        for t in fsorted(data)],
         },
        "promotion threshold (touches)", "instructions / ns", log_x=True,
    )]


def _shape_persistence(data):
    # Interval 0 means "never flush"; plot it at the right edge.
    intervals = fsorted(data)
    finite = [t for t in intervals if float(t) > 0]
    edge = 2 * max((float(t) for t in finite), default=1.0)

    def x_of(t: str) -> float:
        return float(t) if float(t) > 0 else edge

    return [line(
        "Ablation: baseline dirty-flush interval",
        {"throughput (ipns)": [(x_of(t), data[t]["ipns"])
                               for t in intervals]},
        "flush interval (us; right edge = never)", "instructions / ns",
    ), line(
        "Ablation: flush interval vs flash write traffic",
        {"flash writes / Mi instr": [(x_of(t), data[t]["flash_writes_per_Mi"])
                                     for t in intervals]},
        "flush interval (us; right edge = never)",
        "flash page writes per Mi instructions",
    )]


FIGURES = (
    Figure(ChartSpec("prefetch-ablation", "Prefetch ablation", "repro DESIGN",
                     "bar", "This reproduction's baseline prefetcher "
                     "ablation.", _shape_prefetch),
           _prefetch, _prefetch_cells, ("srad", "bc")),
    Figure(ChartSpec("promotion-threshold", "Promotion threshold",
                     "repro DESIGN", "line", "Hotness threshold sweep of the "
                     "SS III-C promotion counters.", _shape_promotion),
           _promotion, _promotion_cells),
    Figure(ChartSpec("persistence-interval", "Persistence interval",
                     "repro DESIGN", "line", "The baseline's dirty-flush "
                     "durability interval.", _shape_persistence),
           _persistence, _persistence_cells),
)
