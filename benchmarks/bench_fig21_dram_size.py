"""Fig. 21: sensitivity to SSD DRAM cache size.

Paper result: SkyByte-Full is the best design at every DRAM size, and a
SkyByte device with a small DRAM matches or beats Base-CSSD with a much
larger one -- the cost argument for the CXL-aware organisation.
"""

from conftest import bench_records, print_series, run_figure

from repro.config import KB


def test_fig21_dram_size(benchmark):
    sizes = (512 * KB, 1024 * KB, 2048 * KB)
    rows = benchmark.pedantic(
        run_figure,
        args=("fig21",),
        kwargs={"records": bench_records(), "workloads": ["bc", "tpcc"]},
        rounds=1,
        iterations=1,
    )
    series = {
        f"{wl}/{variant}": {f"{s//KB}KB": t for s, t in sweep.items()}
        for wl, variants in rows.items()
        for variant, sweep in variants.items()
    }
    print_series("Fig. 21: normalized time vs SSD DRAM size", series)
    for wl, variants in rows.items():
        for size in sizes:
            # Full never loses to the baseline at the same size.
            assert (
                variants["SkyByte-Full"][size]
                <= variants["Base-CSSD"][size] * 1.05
            )
        # Small-DRAM SkyByte vs large-DRAM baseline (the cost pitch).
        assert (
            variants["SkyByte-Full"][sizes[0]]
            <= variants["Base-CSSD"][sizes[-1]] * 1.6
        )
