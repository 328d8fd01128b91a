"""Cost-effectiveness analysis (§VI-B).

The paper prices DDR5 DRAM at $4.28/GB and ULL SSD at $0.27/GB (summer
2024 market), concluding SkyByte-Full costs 15.9x less than the
DRAM-only setup while reaching 75% of its performance -- an 11.8x
cost-effectiveness win.  This module reproduces that arithmetic with the
measured performance ratio from the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.overall import grid_cells
from repro.figures.spec import (ChartSpec, Claim, Expectation, Figure, check,
                                single_bar, value_at)
from repro.workloads.suites import WORKLOAD_NAMES

#: $/GB, from §VI-B.
DDR5_COST_PER_GB = 4.28
ULL_SSD_COST_PER_GB = 0.27

#: Paper-reported headline numbers (SS VI-B), the expectations below:
#: the 15.9x DRAM:flash price ratio, SkyByte-Full reaching 75% of
#: DRAM-Only performance, and the resulting 11.8x cost-effectiveness.
PAPER_EXPECTED = {
    "cost": {
        "cost_ratio": 15.9,
        "performance_fraction_geomean": 0.75,
        "cost_effectiveness": 11.8,
    },
}


@dataclass
class CostModel:
    """Capacity and price assumptions for the two setups."""

    #: DRAM-only: enough DDR5 to hold the whole working set (the paper's
    #: ideal assumes the 128 GB the CXL-SSD provides, in DRAM).
    dram_only_gb: float = 128.0
    #: SkyByte: the CXL-SSD's flash plus the small host DRAM budget.
    skybyte_flash_gb: float = 128.0
    skybyte_host_dram_gb: float = 2.0

    @property
    def dram_only_cost(self) -> float:
        return self.dram_only_gb * DDR5_COST_PER_GB

    @property
    def skybyte_cost(self) -> float:
        return (
            self.skybyte_flash_gb * ULL_SSD_COST_PER_GB
            + self.skybyte_host_dram_gb * DDR5_COST_PER_GB
        )

    @property
    def cost_ratio(self) -> float:
        """The paper's headline 15.9x: the per-GB price ratio of DDR5
        over ULL flash ($4.28 / $0.27).  0.75 performance x 15.9 gives
        the 11.8x cost-effectiveness of §VI-B."""
        return DDR5_COST_PER_GB / ULL_SSD_COST_PER_GB

    @property
    def setup_cost_ratio(self) -> float:
        """Whole-setup ratio including SkyByte's small host-DRAM budget
        (slightly below the per-GB ratio)."""
        return self.dram_only_cost / self.skybyte_cost


def _cost(workloads, _records, results) -> Dict[str, object]:
    """Measured performance-per-dollar of SkyByte-Full vs DRAM-Only.

    Returns the per-workload performance fractions, their geometric mean,
    the cost ratio and the resulting cost-effectiveness multiple.
    """
    model = CostModel()
    fractions: Dict[str, float] = {}
    product = 1.0
    for wl, ideal, full in zip(workloads, results[::2], results[1::2]):
        frac = full.stats.throughput_ipns / max(ideal.stats.throughput_ipns, 1e-12)
        fractions[wl] = frac
        product *= frac
    geomean = product ** (1.0 / len(workloads)) if workloads else 0.0
    return {
        "performance_fraction": fractions,
        "performance_fraction_geomean": geomean,
        "cost_ratio": model.cost_ratio,
        "setup_cost_ratio": model.setup_cost_ratio,
        "cost_effectiveness": geomean * model.cost_ratio,
        "dram_only_cost_usd": model.dram_only_cost,
        "skybyte_cost_usd": model.skybyte_cost,
    }


def _shape_cost(data):
    values = dict(data["performance_fraction"])
    values["geomean"] = data["performance_fraction_geomean"]
    subtitle = (
        f"cost ratio {float(data['cost_ratio']):.3g}x -> "
        f"cost-effectiveness {float(data['cost_effectiveness']):.3g}x"
    )
    return [single_bar(
        "Cost: SkyByte-Full performance fraction of DRAM-Only",
        values, "performance fraction", "fraction of DRAM-Only throughput",
        subtitle=subtitle,
    )]


_paper = PAPER_EXPECTED["cost"]

COST = Figure(
    ChartSpec("cost", "Cost-effectiveness", "SS VI-B", "bar",
              "Performance fraction and $-ratio arithmetic "
              "(paper: 11.8x cost-effectiveness).", _shape_cost),
    _cost, grid_cells(["DRAM-Only", "SkyByte-Full"]), tuple(WORKLOAD_NAMES),
    expectations=(
        Expectation("DRAM:flash $ ratio (x)", _paper["cost_ratio"],
                    value_at("cost_ratio"), pass_tol=0.05, warn_tol=0.5,
                    note="pure price arithmetic -- must match"),
        Expectation("performance fraction of DRAM-Only",
                    _paper["performance_fraction_geomean"],
                    value_at("performance_fraction_geomean")),
        Expectation("cost-effectiveness (x)", _paper["cost_effectiveness"],
                    value_at("cost_effectiveness")),
    ),
    claims=(
        # The hardware cost ratio is pure price arithmetic: exact.
        Claim("DRAM costs over 10x more per GB than flash",
              lambda d: [check(d["cost_ratio"] > 10.0,
                               cost_ratio=d["cost_ratio"])]),
        Claim("cost-effectiveness favours SkyByte even at reduced "
              "performance", lambda d: [check(
                  d["cost_effectiveness"] > 1.0,
                  cost_effectiveness=d["cost_effectiveness"])]),
    ),
)
