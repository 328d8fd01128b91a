"""Fig. 23: alternative page migration mechanisms (§VI-H).

Compares SkyByte's per-page-counter promotion (CP / Full) against TPP's
sampling-based promotion (CT / WCT) and AstriFlash's host-DRAM-as-cache
organisation, all normalized to SkyByte-C.  Paper shape: CP edges out CT
(sampling is less accurate), CP beats AstriFlash-CXL (fully-associative
hot-page placement vs set-associative on-demand paging), WCT shows the
write log composes with TPP, and Full wins overall.
"""

from __future__ import annotations

from repro.experiments.overall import grid_cells, normalized_time
from repro.figures.spec import ChartSpec, Figure, bar
from repro.variants import MIGRATION_VARIANTS
from repro.workloads.suites import WORKLOAD_NAMES


def _fig23(workloads, _records, results):
    """Fig. 23: normalized execution time, SkyByte-C = 1.0 (lower is
    better)."""
    return normalized_time(workloads, MIGRATION_VARIANTS, results)


def _shape_fig23(data):
    return [bar(
        "Fig. 23: page migration mechanisms",
        data, "normalized execution time (SkyByte-C = 1)",
    )]


FIG23 = Figure(
    ChartSpec("fig23", "Migration mechanisms", "SS VI-H", "bar",
              "SkyByte's counter-based promotion vs TPP sampling and "
              "AstriFlash.", _shape_fig23),
    _fig23, grid_cells(MIGRATION_VARIANTS), tuple(WORKLOAD_NAMES))
