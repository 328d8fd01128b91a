"""Fig. 17: average memory access time and its breakdown.

Paper result: SkyByte-WP/Full cut the flash component drastically; the
full design's AMAT lands within ~1.4x of the DRAM-Only ideal, with the
residual dominated by CXL protocol + SSD DRAM time.
"""

from conftest import bench_records, print_table, run_figure


def test_fig17_amat(benchmark):
    rows = benchmark.pedantic(
        run_figure,
        args=("fig17",),
        kwargs={"records": bench_records()},
        rounds=1,
        iterations=1,
    )
    table = {
        f"{wl}/{variant}": data
        for wl, variants in rows.items()
        for variant, data in variants.items()
    }
    print_table("Fig. 17: AMAT (ns) and components", table)
    for wl, variants in rows.items():
        base = variants["Base-CSSD"]["amat_ns"]
        full = variants["SkyByte-Full"]["amat_ns"]
        dram = variants["DRAM-Only"]["amat_ns"]
        assert full < base  # SkyByte improves AMAT
        assert dram < full  # but the ideal stays ahead
        # The flash component shrinks from Base to Full.
        assert variants["SkyByte-Full"]["Flash"] <= variants["Base-CSSD"]["Flash"]
