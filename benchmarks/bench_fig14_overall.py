"""Fig. 14: the headline ablation across all eight designs.

Paper result: SkyByte-Full outperforms Base-CSSD by 6.11x on average
(up to 16.35x), reaches 75% of the DRAM-Only ideal, and every individual
mechanism (P: 1.84x, C: 1.49x, W: 2.16x) improves on the baseline.  At
this reproduction's scale the ordering and direction hold with smaller
magnitudes (see EXPERIMENTS.md).
"""

from conftest import bench_records, geomean, print_table, run_figure

from repro.variants import MAIN_VARIANTS


def test_fig14_overall(benchmark):
    # The headline figure deserves longer traces: promotion needs enough
    # reuse after its warmup to pay off.
    records = max(bench_records(), 3000)
    rows = benchmark.pedantic(
        run_figure,
        args=("fig14",),
        kwargs={"records": records},
        rounds=1,
        iterations=1,
    )
    print_table(
        "Fig. 14: normalized execution time (Base-CSSD = 1.0, lower is better)",
        rows,
    )
    speedup = {
        v: geomean([1.0 / rows[wl][v] for wl in rows]) for v in MAIN_VARIANTS
    }
    print("geomean speedups over Base-CSSD:",
          {v: round(s, 2) for v, s in speedup.items()})

    # Shape assertions (paper's qualitative ordering):
    assert speedup["DRAM-Only"] > speedup["SkyByte-Full"] > 1.0
    assert speedup["SkyByte-Full"] >= speedup["SkyByte-WP"] * 0.95
    assert speedup["SkyByte-CP"] > speedup["SkyByte-P"]
    assert speedup["SkyByte-C"] > 1.0
    assert speedup["SkyByte-P"] > 0.98
