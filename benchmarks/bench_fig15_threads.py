"""Fig. 15: SkyByte-Full throughput scaling with thread count.

Paper result: throughput tracks SSD bandwidth utilisation; workloads
with many flash reads (bfs-dense, srad) keep scaling, while those whose
flash latency is already near the switch overhead (bc, dlrm) saturate
around two threads per core.
"""

from conftest import bench_records, print_series, run_figure

from repro.workloads.suites import representative_four


def test_fig15_threads(benchmark):
    rows = benchmark.pedantic(
        run_figure,
        args=("fig15",),
        kwargs={"records": bench_records(), "workloads": representative_four()},
        rounds=1,
        iterations=1,
    )
    series = {
        wl: {t: data["throughput"] for t, data in sweep.items()}
        for wl, sweep in rows.items()
    }
    print_series("Fig. 15: throughput vs threads (SkyByte-WP@8 = 1.0)", series)
    bw = {
        wl: {t: data["ssd_bandwidth"] for t, data in sweep.items()}
        for wl, sweep in rows.items()
    }
    print_series("Fig. 15: SSD read bandwidth vs threads", bw)
    for wl, sweep in rows.items():
        # Oversubscription with switching should beat or match 8 threads.
        best = max(data["throughput"] for data in sweep.values())
        assert best >= sweep[8]["throughput"] * 0.95
