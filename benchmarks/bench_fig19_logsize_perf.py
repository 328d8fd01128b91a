"""Fig. 19: SkyByte performance vs write-log size.

Paper result: a log of no more than 1/8 of the SSD DRAM already gives a
sufficient coalescing window for most workloads; going smaller hurts
write-heavy / high-locality workloads (srad, tpcc).
"""

from conftest import bench_records, print_series, run_figure

from repro.config import KB


def test_fig19_logsize_perf(benchmark):
    rows = benchmark.pedantic(
        run_figure,
        args=("fig19",),
        kwargs={"records": bench_records(), "workloads": ["bc", "srad", "tpcc"]},
        rounds=1,
        iterations=1,
    )
    series = {
        wl: {f"{s//KB}KB": t for s, t in sweep.items()} for wl, sweep in rows.items()
    }
    print_series("Fig. 19: normalized time vs log size (largest = 1.0)", series)
    for wl, sweep in rows.items():
        # The default (128KB = 1/8 of DRAM) should be within ~30% of the
        # biggest log -- "a small write log already provides a
        # sufficiently large coalescing window".
        assert sweep[128 * KB] <= sweep[16 * KB] * 1.3 or sweep[128 * KB] < 1.35
