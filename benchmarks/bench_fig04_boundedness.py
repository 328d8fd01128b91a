"""Fig. 4: memory- vs compute-bounded execution breakdown.

Paper result: memory-bounded cycles grow from 62.9-98.7% (DRAM) to
77-99.8% (CXL-SSD) -- the device turns everything memory-bound.
"""

from conftest import bench_records, print_table, run_figure


def test_fig04_boundedness(benchmark):
    rows = benchmark.pedantic(
        run_figure,
        args=("fig4",),
        kwargs={"records": bench_records()},
        rounds=1,
        iterations=1,
    )
    print_table("Fig. 4: memory-bounded fraction (paper: DRAM 63-99%, CSSD 77-99.8%)", rows)
    for wl, row in rows.items():
        assert row["cssd_memory_bound"] >= row["dram_memory_bound"] - 0.02
        assert row["cssd_memory_bound"] > 0.7
