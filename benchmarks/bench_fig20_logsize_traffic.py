"""Fig. 20: flash write traffic vs write-log size.

Paper result: larger logs coalesce more rewrites before each compaction,
so traffic falls steeply with log size -- especially for workloads with
strong temporal write locality (srad, tpcc).
"""

from conftest import bench_records, print_series, run_figure

from repro.config import KB


def test_fig20_logsize_traffic(benchmark):
    rows = benchmark.pedantic(
        run_figure,
        args=("fig20",),
        kwargs={"records": bench_records(), "workloads": ["bc", "srad", "tpcc"]},
        rounds=1,
        iterations=1,
    )
    series = {
        wl: {f"{s//KB}KB": t for s, t in sweep.items()} for wl, sweep in rows.items()
    }
    print_series("Fig. 20: write traffic vs log size (smallest = 1.0)", series)
    for wl, sweep in rows.items():
        # The biggest log must not write more than the smallest.
        assert sweep[256 * KB] <= sweep[16 * KB] * 1.05
