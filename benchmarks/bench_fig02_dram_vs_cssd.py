"""Fig. 2: end-to-end execution time, host DRAM vs baseline CXL-SSD.

Paper result: workloads run 1.5x-31.4x worse on the naive CXL-SSD than
in DRAM, because of flash latency exposed through the byte interface.
"""

from conftest import bench_records, geomean, print_table, run_figure


def test_fig02_dram_vs_cssd(benchmark):
    rows = benchmark.pedantic(
        run_figure,
        args=("fig2",),
        kwargs={"records": bench_records()},
        rounds=1,
        iterations=1,
    )
    print_table("Fig. 2: slowdown of Base-CSSD vs DRAM (paper: 1.5x-31.4x)", rows)
    slowdowns = [r["slowdown"] for r in rows.values()]
    # Shape: every workload slower on CXL-SSD; spread of at least ~2x
    # between the best and worst case (tpcc mild, bfs-dense severe).
    assert all(s > 1.2 for s in slowdowns)
    assert max(slowdowns) / min(slowdowns) > 2.0
    assert rows["bfs-dense"]["slowdown"] > rows["tpcc"]["slowdown"]
    print(f"geomean slowdown: {geomean(slowdowns):.2f}x")
