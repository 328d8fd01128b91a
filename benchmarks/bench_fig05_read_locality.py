"""Fig. 5: per-page cacheline locality of flash reads.

Paper result: many workloads access fewer than 40% of the cachelines in
more than 75% of the pages brought into the SSD DRAM cache -- page-
granular caching wastes most of its capacity.
"""

from conftest import bench_records, print_series, run_figure


def test_fig05_read_locality(benchmark):
    rows = benchmark.pedantic(
        run_figure,
        args=("fig5",),
        kwargs={"records": bench_records() * 4},
        rounds=1,
        iterations=1,
    )
    series = {
        f"{wl} 1:{ratio}": {"<40% lines": data["pages_below_40pct"],
                            "mean ratio": data["mean_ratio"]}
        for wl, ratios in rows.items()
        for ratio, data in ratios.items()
    }
    print_series("Fig. 5: pages touching <40% of lines when read (paper: >75%)", series)
    # Sparse-access workloads (bc, dlrm, ycsb) at high footprint:cache
    # ratios leave most of each cached page untouched.
    for wl in ("bc", "dlrm", "ycsb"):
        assert rows[wl][128]["pages_below_40pct"] > 0.6
    # Tighter caches (1:128) are at least as sparse as roomy ones (1:2).
    for wl, ratios in rows.items():
        assert ratios[128]["mean_ratio"] <= ratios[2]["mean_ratio"] + 0.05
