"""Fig. 6: per-page dirty-line locality of flash writebacks.

Paper result: dirty lines are even sparser than read-touched lines --
whole-page writebacks ship mostly-clean data, the write-amplification
SkyByte's cacheline log removes.
"""

from conftest import bench_records, print_series, run_figure


def test_fig06_write_locality(benchmark):
    rows = benchmark.pedantic(
        run_figure,
        args=("fig6",),
        kwargs={"records": bench_records() * 4},
        rounds=1,
        iterations=1,
    )
    series = {
        f"{wl} 1:{ratio}": {"<40% dirty": data["pages_below_40pct"],
                            "mean ratio": data["mean_ratio"]}
        for wl, ratios in rows.items()
        for ratio, data in ratios.items()
    }
    print_series("Fig. 6: pages flushed with <40% dirty lines", series)
    for wl, ratios in rows.items():
        # At the tightest ratio, flushed pages are mostly clean.
        assert ratios[128]["pages_below_40pct"] > 0.5
        assert ratios[128]["mean_ratio"] < 0.5
