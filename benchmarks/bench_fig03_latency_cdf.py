"""Fig. 3: off-chip memory latency distribution, DRAM vs CXL-SSD.

Paper result: with the CXL-SSD, most requests are served fast by the SSD
DRAM cache, but the tail reaches hundreds of microseconds (flash reads,
GC) -- orders of magnitude beyond DRAM's tail.
"""

from conftest import bench_records, print_table, run_figure


def test_fig03_latency_cdf(benchmark):
    rows = benchmark.pedantic(
        run_figure,
        args=("fig3",),
        kwargs={"records": bench_records()},
        rounds=1,
        iterations=1,
    )
    table = {}
    for wl, out in rows.items():
        table[wl] = {
            "dram_p99_ns": out["DRAM"]["p99_ns"],
            "cssd_p99_ns": out["CXL-SSD"]["p99_ns"],
            "cssd_max_us": out["CXL-SSD"]["max_ns"] / 1000.0,
            "cssd_fast_frac": out["CXL-SSD"]["fast_fraction"],
        }
    print_table("Fig. 3: latency distribution (DRAM vs CXL-SSD)", table)
    for wl, out in rows.items():
        # DRAM's tail is tight; the CXL-SSD's tail reaches flash scale.
        assert out["DRAM"]["max_ns"] < 10_000
        assert out["CXL-SSD"]["max_ns"] > 3_000
        # A large share of CXL-SSD requests is still served fast.
        assert out["CXL-SSD"]["fast_fraction"] > 0.5
