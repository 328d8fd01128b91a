"""Fig. 16: memory request breakdown under SkyByte.

Paper result: promoted pages absorb much of the traffic (H-R/W), SSD
DRAM hits (S-R-H) dominate the remaining reads, flash-bound misses
(S-R-M) are a small minority, and writes (S-W) all land in the log.
"""

from conftest import bench_records, print_table, run_figure


def test_fig16_breakdown(benchmark):
    rows = benchmark.pedantic(
        run_figure,
        args=("fig16",),
        kwargs={"records": bench_records()},
        rounds=1,
        iterations=1,
    )
    print_table("Fig. 16: request classes under SkyByte-Full", rows)
    for wl, row in rows.items():
        assert abs(sum(row.values()) - 1.0) < 1e-6
        # Flash-bound read misses are the smallest read class.
        assert row["S-R-M"] < row["S-R-H"] + row["H-R/W"]
    # Graph traversal keeps a larger flash-bound share than the
    # locality-friendly OLTP workload (Fig. 16's left-right contrast).
    assert rows["bfs-dense"]["S-R-M"] > rows["tpcc"]["S-R-M"]
