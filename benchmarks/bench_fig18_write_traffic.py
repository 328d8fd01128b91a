"""Fig. 18: flash write traffic per design.

Paper result: SkyByte reduces write traffic to the flash chips by 23.08x
on average -- the write log's coalescing window dwarfs the page cache's.
The context switch can add a little traffic back (more concurrent
threads, more compactions), visible as Full >= WP.
"""

from conftest import bench_records, geomean, print_table, run_figure


def test_fig18_write_traffic(benchmark):
    rows = benchmark.pedantic(
        run_figure,
        args=("fig18",),
        kwargs={"records": bench_records()},
        rounds=1,
        iterations=1,
    )
    print_table("Fig. 18: flash write traffic (Base-CSSD = 1.0, lower is better)", rows)
    reductions = {
        v: geomean([1.0 / max(rows[wl][v], 1e-9) for wl in rows])
        for v in next(iter(rows.values()))
    }
    print("geomean traffic reduction:",
          {v: round(r, 2) for v, r in reductions.items()})
    # Shape: the full design cuts write traffic on every workload, and
    # promotion alone also helps.
    for wl, row in rows.items():
        assert row["SkyByte-Full"] < 1.0
        assert row["SkyByte-P"] <= 1.05
    assert reductions["SkyByte-Full"] > 1.5
