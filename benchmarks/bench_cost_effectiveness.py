"""§VI-B cost-effectiveness: performance-per-dollar vs DRAM-Only.

Paper result: at $4.28/GB (DDR5) vs $0.27/GB (ULL SSD), SkyByte-Full
costs 15.9x less than the DRAM-only setup, achieves 75% of its
performance, and so improves cost-effectiveness by 11.8x.
"""

from conftest import bench_records, print_table, run_figure


def test_cost_effectiveness(benchmark):
    out = benchmark.pedantic(
        run_figure,
        args=("cost",),
        kwargs={"records": bench_records()},
        rounds=1,
        iterations=1,
    )
    table = {
        wl: {"perf_fraction": frac}
        for wl, frac in out["performance_fraction"].items()
    }
    print_table("SkyByte-Full performance as a fraction of DRAM-Only", table)
    print(
        f"geomean perf fraction: {out['performance_fraction_geomean']:.3f} "
        f"(paper: 0.75)\n"
        f"cost ratio: {out['cost_ratio']:.1f}x cheaper (paper: 15.9x)\n"
        f"cost-effectiveness: {out['cost_effectiveness']:.2f}x (paper: 11.8x)"
    )
    # The hardware cost ratio is pure Table-price arithmetic: exact.
    assert out["cost_ratio"] > 10.0
    # Cost-effectiveness must favour SkyByte even at reduced perf.
    assert out["cost_effectiveness"] > 1.0
