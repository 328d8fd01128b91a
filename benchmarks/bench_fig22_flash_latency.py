"""Fig. 22: sensitivity to flash technology (ULL/ULL2/SLC/MLC).

Paper result: with slower flash, the write log and context switching
matter more (their job is hiding flash latency), and SkyByte-Full keeps
scaling with threads -- making cheap commodity NAND viable for
parallelizable applications.
"""

from conftest import bench_records, print_series, run_figure


def test_fig22_flash_latency(benchmark):
    rows = benchmark.pedantic(
        run_figure,
        args=("fig22",),
        kwargs={"records": bench_records(), "workloads": ["bc", "srad", "tpcc"]},
        rounds=1,
        iterations=1,
    )
    series = {
        f"{wl}/{timing}": cell
        for wl, timings in rows.items()
        for timing, cell in timings.items()
    }
    print_series("Fig. 22: normalized time per flash type (Full-24@ULL = 1.0)", series)
    for wl, timings in rows.items():
        # Slower flash slows everything down...
        assert timings["MLC"]["SkyByte-WP"] >= timings["ULL"]["SkyByte-WP"] * 0.9
        # ...but context switching keeps Full competitive: its MLC
        # penalty is no worse than WP's on every workload.
        full_penalty = timings["MLC"]["SkyByte-Full-24"] / max(
            timings["ULL"]["SkyByte-Full-24"], 1e-9
        )
        wp_penalty = timings["MLC"]["SkyByte-WP"] / max(
            timings["ULL"]["SkyByte-WP"], 1e-9
        )
        assert full_penalty <= wp_penalty * 1.5
