"""Tests for the figure subsystem: SVG renderer and the figures' charts.

The renderer snapshots are pinned like the simulator goldens: a fixed
:class:`~repro.figures.svg.Chart` must render to byte-identical SVG.
After an intentional renderer change, refresh with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_figures.py

and inspect the diff under ``tests/golden/``.
"""

import os
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from repro.cli import FIGURES
from repro.figures.spec import shape_figure
from repro.figures.svg import MAX_SERIES, Chart, Series, render_chart

GOLDEN_DIR = Path(__file__).parent / "golden"
SVG_NS = "{http://www.w3.org/2000/svg}"


def bar_chart() -> Chart:
    return Chart(
        title="Golden grouped bars",
        kind="bar",
        categories=("bc", "ycsb", "tpcc"),
        series=(
            Series("Base-CSSD", values=(1.0, 1.0, 1.0)),
            Series("SkyByte-Full", values=(0.21, 0.48, None)),
        ),
        y_label="normalized execution time",
        subtitle="missing cells are skipped, not drawn as zero",
    )


def line_chart() -> Chart:
    return Chart(
        title="Golden lines",
        kind="line",
        series=(
            Series("bc", points=((2.0, 1.0), (10.0, 1.4), (80.0, 1.9))),
            Series("ycsb", points=((2.0, 1.0), (10.0, 1.1), (80.0, 1.3))),
        ),
        x_label="threshold (us)",
        y_label="normalized time",
    )


def log_cdf_chart() -> Chart:
    points = tuple((10.0 ** (k / 4.0), min(1.0, 0.05 * k)) for k in range(21))
    return Chart(
        title="Golden CDF",
        kind="line",
        series=(Series("CXL-SSD", points=points),),
        x_label="latency (ns)",
        y_label="CDF",
        log_x=True,
    )


def stacked_chart() -> Chart:
    return Chart(
        title="Golden stacked bars",
        kind="stacked",
        categories=("bc", "ycsb"),
        series=(
            Series("Host DRAM", values=(10.0, 4.0)),
            Series("Flash", values=(90.0, None)),
        ),
        y_label="AMAT (ns)",
        subtitle="segments stack bottom-up in series order",
    )


GOLDEN_CHARTS = {
    "chart_bar.svg": bar_chart,
    "chart_line.svg": line_chart,
    "chart_log_cdf.svg": log_cdf_chart,
    "chart_stacked.svg": stacked_chart,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CHARTS))
def test_svg_snapshot(name):
    """A fixed chart renders byte-identically to its pinned snapshot."""
    svg = render_chart(GOLDEN_CHARTS[name]())
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.write_text(svg)
        pytest.skip(f"regenerated {path}")
    assert path.is_file(), (
        f"missing golden {path}; regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    assert svg == path.read_text(), (
        f"SVG output drifted from {path}; if the renderer change is "
        f"intentional, regenerate with REPRO_UPDATE_GOLDEN=1 and review "
        f"the diff"
    )


def test_render_is_deterministic():
    assert render_chart(bar_chart()) == render_chart(bar_chart())
    assert render_chart(log_cdf_chart()) == render_chart(log_cdf_chart())


def test_rendered_svg_is_wellformed_xml():
    for make in GOLDEN_CHARTS.values():
        root = ET.fromstring(render_chart(make()))
        assert root.tag == f"{SVG_NS}svg"


def test_multi_series_chart_has_legend_single_does_not():
    multi = ET.fromstring(render_chart(bar_chart()))
    texts = [t.text for t in multi.iter(f"{SVG_NS}text")]
    assert "Base-CSSD" in texts and "SkyByte-Full" in texts
    single = render_chart(Chart(
        title="one series", kind="bar", categories=("a",),
        series=(Series("only", values=(1.0,)),),
    ))
    assert "only" not in single  # no legend row for a single series


def test_missing_bar_value_is_skipped_not_zero():
    svg = render_chart(bar_chart())
    root = ET.fromstring(svg)
    # background rect + 2 legend swatches; bars are <path> elements:
    paths = list(root.iter(f"{SVG_NS}path"))
    assert len(paths) == 5  # 3 + 2 bars; the None cell draws nothing


def test_series_cap_enforced():
    too_many = Chart(
        title="overfull", kind="bar", categories=("x",),
        series=tuple(Series(f"s{i}", values=(1.0,))
                     for i in range(MAX_SERIES + 1)),
    )
    with pytest.raises(ValueError, match="small multiples"):
        render_chart(too_many)


def test_bar_series_must_align_with_categories():
    bad = Chart(
        title="misaligned", kind="bar", categories=("a", "b"),
        series=(Series("s", values=(1.0,)),),
    )
    with pytest.raises(ValueError, match="values for"):
        render_chart(bad)


def test_stacked_rejects_negative_segments():
    bad = Chart(
        title="below baseline", kind="stacked", categories=("a",),
        series=(Series("s", values=(-0.5,)),),
    )
    with pytest.raises(ValueError, match="negative"):
        render_chart(bad)


def test_stacked_segment_count():
    svg = render_chart(stacked_chart())
    root = ET.fromstring(svg)
    rects = list(root.iter(f"{SVG_NS}rect"))
    # background + 2 legend swatches + 3 segments (None draws nothing)
    assert len(rects) == 1 + 2 + 3


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


def test_every_figure_id_documented_in_gallery():
    gallery = (Path(__file__).parents[1] / "docs" / "FIGURES.md").read_text()
    for figure in FIGURES:
        assert f"`{figure}`" in gallery, (
            f"{figure} missing from docs/FIGURES.md gallery table"
        )


def test_shape_figure_rejects_unknown_id():
    with pytest.raises(KeyError, match="no chart spec"):
        shape_figure("fig999", {})


# ---------------------------------------------------------------------------
# Shapers over synthetic payloads (JSON- and live-shaped)
# ---------------------------------------------------------------------------


def test_fig14_shaper_grouped_bars():
    data = {
        "bc": {"Base-CSSD": 1.0, "SkyByte-Full": 0.2},
        "ycsb": {"Base-CSSD": 1.0, "SkyByte-Full": 0.5},
    }
    (chart,) = shape_figure("fig14", data)
    assert chart.kind == "bar"
    assert chart.categories == ("bc", "ycsb")
    assert [s.label for s in chart.series] == ["Base-CSSD", "SkyByte-Full"]
    assert chart.series[1].values == (0.2, 0.5)


def test_fig9_shaper_sorts_thresholds_numerically():
    # JSON round-trip turns numeric keys into strings; "10" must not
    # sort before "2".
    data = {"bc": {"10": 1.4, "2": 1.0, "80": 1.9}}
    (chart,) = shape_figure("fig9", data)
    assert chart.series[0].points == ((2.0, 1.0), (10.0, 1.4), (80.0, 1.9))


def test_fig3_shaper_facets_per_workload():
    row = {"cdf": [[100.0, 0.5], [1000.0, 1.0]], "p50_ns": 100.0,
           "p99_ns": 900.0, "max_ns": 1000.0, "fast_fraction": 0.5}
    data = {"bc": {"DRAM": row, "CXL-SSD": row},
            "tpcc": {"DRAM": row, "CXL-SSD": row}}
    charts = shape_figure("fig3", data)
    assert len(charts) == 2
    assert all(c.log_x for c in charts)
    assert [s.label for s in charts[0].series] == ["DRAM", "CXL-SSD"]


def test_fig22_shaper_takes_geomean_across_workloads():
    data = {
        "bc": {"ULL": {"SkyByte-WP": 1.0}, "MLC": {"SkyByte-WP": 4.0}},
        "ycsb": {"ULL": {"SkyByte-WP": 1.0}, "MLC": {"SkyByte-WP": 1.0}},
    }
    (chart,) = shape_figure("fig22", data)
    assert chart.categories == ("ULL", "MLC")
    mlc = chart.series[0].values[1]
    assert mlc == pytest.approx(2.0)  # geomean(4, 1)


def test_fig16_shaper_stacks_request_classes():
    data = {"bc": {"H-R/W": 0.1, "S-R-H": 0.4, "S-R-M": 0.3, "S-W": 0.2}}
    (chart,) = shape_figure("fig16", data)
    assert chart.kind == "stacked"
    assert [s.label for s in chart.series] == ["H-R/W", "S-R-H", "S-R-M",
                                               "S-W"]


def test_fig17_shaper_facets_stacked_amat_per_workload():
    row = {"amat_ns": 5.0, "Host DRAM": 1.0, "CXL Protocol": 1.0,
           "Indexing": 1.0, "SSD DRAM": 1.0, "Flash": 1.0}
    data = {"bc": {"Base-CSSD": row, "DRAM-Only": row}, "ycsb": {"Base-CSSD": row}}
    charts = shape_figure("fig17", data)
    assert len(charts) == 2
    assert all(c.kind == "stacked" for c in charts)
    assert charts[0].categories == ("Base-CSSD", "DRAM-Only")
    assert [s.label for s in charts[0].series] == [
        "Host DRAM", "CXL Protocol", "Indexing", "SSD DRAM", "Flash"]


def test_colocation_shaper_builds_slowdown_and_breakdowns():
    tenant = {"slowdown": 1.4,
              "requests": {"H-R/W": 0.1, "S-R-H": 0.5, "S-R-M": 0.2,
                           "S-W": 0.2},
              "amat": {"Host DRAM": 1.0, "CXL Protocol": 2.0, "Indexing": 1.0,
                       "SSD DRAM": 3.0, "Flash": 9.0}}
    data = {"variant": "SkyByte-Full",
            "tenants": {"web": tenant, "ingest": tenant}}
    slowdown, requests, amat = shape_figure("colocation", data)
    assert slowdown.kind == "bar" and slowdown.categories == ("web", "ingest")
    assert requests.kind == "stacked"
    assert amat.kind == "stacked"
    assert amat.series[-1].label == "Flash"


def test_persistence_shaper_maps_never_flush_to_right_edge():
    data = {"50.0": {"ipns": 1.0, "flash_writes_per_Mi": 10.0},
            "500.0": {"ipns": 2.0, "flash_writes_per_Mi": 5.0},
            "0.0": {"ipns": 3.0, "flash_writes_per_Mi": 1.0}}
    throughput, traffic = shape_figure("persistence-interval", data)
    xs = [x for x, _y in throughput.series[0].points]
    assert max(xs) == 1000.0  # 2 * largest finite interval
    assert len(traffic.series) == 1
