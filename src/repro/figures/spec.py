"""Chart-spec registry: figure id -> how to plot that driver's JSON.

Each driver in :mod:`repro.experiments` returns a nested dict (the same
payload ``python -m repro figures`` writes to ``<figure>.json``).  A
:class:`ChartSpec` records, per figure id, the paper section it
reproduces, the chart form, and a *shaper* that converts the driver's
payload into one or more renderable :class:`~repro.figures.svg.Chart`
objects (a figure whose natural encoding needs more series than the
palette has hues is faceted into small multiples, one chart per
workload).

Shapers are fed the **JSON-normalized** form of the data
(:func:`shape_figure` round-trips through ``json`` first), so they see
exactly what a reader of the ``figures_out/*.json`` artifacts sees:
string keys everywhere, no tuples.  That makes rendering from a live
driver run and from a JSON file on disk byte-identical.

Adding a figure: write the driver, register it in
``repro.experiments.jobspec.FIGURES``, add a :class:`ChartSpec` here
(the registry consistency test will insist), document it in
``docs/FIGURES.md``, and
-- if the paper reports concrete numbers for it -- add expectations in
:mod:`repro.figures.fidelity`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.figures.svg import Chart, Series

ShapeFn = Callable[[object], List[Chart]]


@dataclass(frozen=True)
class ChartSpec:
    """Everything the report needs to render and document one figure."""

    figure: str
    title: str
    section: str  # paper section, e.g. "SS II-C"
    kind: str  # "bar" | "line" (the dominant mark; CDFs are lines)
    workloads: str  # documentation: which workloads the driver defaults to
    variants: str  # documentation: which designs/parameters are swept
    description: str
    shape: ShapeFn


def _norm(data: object) -> object:
    """The JSON-normalized view of a driver payload (string keys)."""
    return json.loads(json.dumps(data, default=str))


def _fsorted(keys: Sequence[str]) -> List[str]:
    """String keys sorted by their numeric value."""
    return sorted(keys, key=float)


def _bar(title: str, rows: Dict[str, Dict[str, float]], y_label: str,
         subtitle: str = "", series_order: Sequence[str] = ()) -> Chart:
    """A grouped bar chart from ``{category: {series: value}}`` rows."""
    categories = tuple(rows)
    labels = list(series_order) or list(next(iter(rows.values()), {}))
    series = tuple(
        Series(
            label=label,
            values=tuple(
                (None if rows[c].get(label) is None else float(rows[c][label]))
                for c in categories
            ),
        )
        for label in labels
    )
    return Chart(title=title, kind="bar", categories=categories,
                 series=series, y_label=y_label, subtitle=subtitle)


def _stacked(title: str, rows: Dict[str, Dict[str, float]], y_label: str,
             subtitle: str = "", series_order: Sequence[str] = ()) -> Chart:
    """A stacked bar chart from ``{category: {segment: value}}`` rows."""
    chart = _bar(title, rows, y_label, subtitle=subtitle,
                 series_order=series_order)
    return Chart(title=chart.title, kind="stacked",
                 categories=chart.categories, series=chart.series,
                 y_label=chart.y_label, subtitle=chart.subtitle)


def _single_bar(title: str, values: Dict[str, float], label: str,
                y_label: str, subtitle: str = "") -> Chart:
    return Chart(
        title=title,
        kind="bar",
        categories=tuple(values),
        series=(Series(label=label,
                       values=tuple(float(v) for v in values.values())),),
        y_label=y_label,
        subtitle=subtitle,
    )


def _line(title: str, series: Dict[str, Sequence[Tuple[float, float]]],
          x_label: str, y_label: str, log_x: bool = False,
          subtitle: str = "") -> Chart:
    return Chart(
        title=title,
        kind="line",
        series=tuple(
            Series(label=label,
                   points=tuple((float(x), float(y)) for x, y in pts))
            for label, pts in series.items()
        ),
        x_label=x_label,
        y_label=y_label,
        log_x=log_x,
        subtitle=subtitle,
    )


# ---------------------------------------------------------------------------
# Shapers (one per figure id; data is JSON-normalized)
# ---------------------------------------------------------------------------


def _shape_fig2(data) -> List[Chart]:
    return [_single_bar(
        "Fig. 2: Base-CSSD slowdown over DRAM-Only",
        {wl: row["slowdown"] for wl, row in data.items()},
        "slowdown", "normalized execution time (x, lower is better)",
    )]


def _shape_fig3(data) -> List[Chart]:
    charts = []
    for wl, row in data.items():
        charts.append(_line(
            f"Fig. 3 ({wl}): off-chip latency CDF",
            {label: row[label]["cdf"] for label in row},
            "latency (ns)", "fraction of requests", log_x=True,
        ))
    return charts


def _shape_fig4(data) -> List[Chart]:
    return [_bar(
        "Fig. 4: memory-bounded execution fraction",
        {wl: {"DRAM": row["dram_memory_bound"],
              "CXL-SSD": row["cssd_memory_bound"]}
         for wl, row in data.items()},
        "fraction of cycles memory-bounded",
    )]


def _shape_locality(figure: str, what: str):
    def shape(data) -> List[Chart]:
        charts = []
        for wl, by_ratio in data.items():
            charts.append(_line(
                f"{figure} ({wl}): {what} locality CDF",
                {f"1:{ratio}": by_ratio[ratio]["cdf"]
                 for ratio in _fsorted(by_ratio)},
                f"fraction of lines {what} per page",
                "cumulative fraction of pages",
                subtitle="one curve per footprint:cache ratio",
            ))
        return charts
    return shape


def _shape_fig9(data) -> List[Chart]:
    return [_line(
        "Fig. 9: context-switch trigger threshold sweep",
        {wl: [(float(t), row[t]) for t in _fsorted(row)]
         for wl, row in data.items()},
        "trigger threshold (us)", "normalized execution time (2 us = 1)",
    )]


def _shape_fig10(data) -> List[Chart]:
    return [_bar(
        "Fig. 10: scheduling policies (RR / Random / CFS)",
        {wl: {policy: row[policy]["normalized_time"] for policy in row}
         for wl, row in data.items()},
        "normalized execution time (RR = 1)",
    )]


def _shape_fig14(data) -> List[Chart]:
    return [_bar(
        "Fig. 14: normalized execution time of every design",
        data, "normalized execution time (Base-CSSD = 1)",
    )]


def _shape_fig15(data) -> List[Chart]:
    charts = []
    for metric, label in (("throughput", "normalized throughput"),
                          ("ssd_bandwidth", "normalized SSD bandwidth")):
        charts.append(_line(
            f"Fig. 15: SkyByte-Full {label} vs threads",
            {wl: [(float(t), row[t][metric]) for t in _fsorted(row)]
             for wl, row in data.items()},
            "threads", f"{label} (SkyByte-WP@8 = 1)",
        ))
    return charts


def _shape_fig16(data) -> List[Chart]:
    return [_stacked(
        "Fig. 16: request class breakdown under SkyByte-Full",
        data, "fraction of requests",
        subtitle="stacked per workload: H-R/W + S-R-H + S-R-M + S-W = 1",
    )]


#: Fig. 17's stack order (SimStats.amat_breakdown keys, host outward).
AMAT_COMPONENTS = ("Host DRAM", "CXL Protocol", "Indexing", "SSD DRAM",
                   "Flash")


def _shape_fig17(data) -> List[Chart]:
    """One stacked chart per workload: AMAT decomposed into its
    components per design, the paper's Fig. 17 encoding."""
    charts = []
    for wl, by_variant in data.items():
        charts.append(_stacked(
            f"Fig. 17 ({wl}): AMAT decomposition per design",
            {variant: {c: row.get(c, 0.0) for c in AMAT_COMPONENTS}
             for variant, row in by_variant.items()},
            "AMAT (ns)",
            series_order=AMAT_COMPONENTS,
        ))
    return charts


def _shape_fig18(data) -> List[Chart]:
    return [_bar(
        "Fig. 18: flash write traffic per design",
        data, "flash writes per instruction (Base-CSSD = 1)",
    )]


def _kib(size: str) -> float:
    return float(size) / 1024.0


def _shape_fig19(data) -> List[Chart]:
    return [_line(
        "Fig. 19: performance vs write-log size",
        {wl: [(_kib(s), row[s]) for s in _fsorted(row)]
         for wl, row in data.items()},
        "write log size (KiB)", "normalized execution time (largest log = 1)",
        log_x=True,
    )]


def _shape_fig20(data) -> List[Chart]:
    return [_line(
        "Fig. 20: flash write traffic vs write-log size",
        {wl: [(_kib(s), row[s]) for s in _fsorted(row)]
         for wl, row in data.items()},
        "write log size (KiB)", "normalized flash writes (smallest log = 1)",
        log_x=True,
    )]


def _shape_fig21(data) -> List[Chart]:
    charts = []
    for wl, by_variant in data.items():
        charts.append(_line(
            f"Fig. 21 ({wl}): performance vs SSD DRAM size",
            {variant: [(_kib(s), sweep[s]) for s in _fsorted(sweep)]
             for variant, sweep in by_variant.items()},
            "SSD DRAM (KiB)",
            "normalized execution time (SkyByte-Full @ default = 1)",
            log_x=True,
        ))
    return charts


def geomean(values: Sequence[float]) -> Optional[float]:
    """Geometric mean over the finite values (None when none remain).

    Values are clamped at 1e-12 so a zero cell cannot collapse the
    mean.  Shared by the fig. 22 shaper and the fidelity extractors.
    """
    clean = [max(float(v), 1e-12) for v in values
             if v is not None and math.isfinite(float(v))]
    if not clean:
        return None
    product = 1.0
    for v in clean:
        product *= v
    return product ** (1.0 / len(clean))


def _shape_fig22(data) -> List[Chart]:
    workloads = list(data)
    timings = list(next(iter(data.values()), {}))
    designs = list(next(iter(data[workloads[0]].values()), {})) \
        if workloads else []
    rows = {
        timing: {
            design: geomean([data[wl][timing][design] for wl in workloads])
            for design in designs
        }
        for timing in timings
    }
    return [_bar(
        "Fig. 22: flash technology sensitivity",
        rows, "normalized execution time (SkyByte-Full-24 @ ULL = 1)",
        subtitle="geometric mean across workloads",
    )]


def _shape_fig23(data) -> List[Chart]:
    return [_bar(
        "Fig. 23: page migration mechanisms",
        data, "normalized execution time (SkyByte-C = 1)",
    )]


def _shape_table3(data) -> List[Chart]:
    return [_single_bar(
        "Table III: average flash read latency under SkyByte-WP",
        data, "flash read latency", "latency (us)",
    )]


def _shape_cost(data) -> List[Chart]:
    values = dict(data["performance_fraction"])
    values["geomean"] = data["performance_fraction_geomean"]
    subtitle = (
        f"cost ratio {float(data['cost_ratio']):.3g}x -> "
        f"cost-effectiveness {float(data['cost_effectiveness']):.3g}x"
    )
    return [_single_bar(
        "Cost: SkyByte-Full performance fraction of DRAM-Only",
        values, "performance fraction", "fraction of DRAM-Only throughput",
        subtitle=subtitle,
    )]


def _shape_colocation(data) -> List[Chart]:
    tenants = data["tenants"]
    subtitle = (f"{len(tenants)} tenant(s) sharing one device, "
                f"variant {data.get('variant', '?')}")
    slowdown = _single_bar(
        "Colocation: per-tenant slowdown",
        {name: row["slowdown"] for name, row in tenants.items()},
        "slowdown",
        "colocated / solo time-per-instruction (1.0 = no interference)",
        subtitle=subtitle,
    )
    requests = _stacked(
        "Colocation: per-tenant request breakdown",
        {name: row["requests"] for name, row in tenants.items()},
        "fraction of requests",
        subtitle="request classes served to each tenant while colocated",
    )
    amat = _stacked(
        "Colocation: per-tenant AMAT decomposition",
        {name: {c: row["amat"].get(c, 0.0) for c in AMAT_COMPONENTS}
         for name, row in tenants.items()},
        "AMAT (ns)",
        subtitle="where each tenant's memory time goes while colocated",
        series_order=AMAT_COMPONENTS,
    )
    return [slowdown, requests, amat]


def _shape_qos(data) -> List[Chart]:
    """SLO-violation stack at the largest tenant count, plus the
    worst-tenant p99 scaling curve -- the stacked + line pair of the
    tenant-QoS figure (see docs/QOS.md)."""
    sweep = data["sweep"]
    counts = [str(c) for c in data["tenant_counts"]]
    top = counts[-1] if counts else None
    slo_us = float(data["slo_read_ns"]) / 1000.0
    charts = []
    if top is not None:
        charts.append(_stacked(
            f"QoS: SLO-violation rate by scenario at {top} tenants",
            {isolation: dict(
                sweep[isolation][top]["violation_rate_by_scenario"])
             for isolation in data["isolations"]},
            "violation rate per scenario (stacked)",
            subtitle=f"fraction of requests slower than the "
                     f"{slo_us:g} us read SLO, per tenant scenario",
        ))
    charts.append(_line(
        "QoS: worst-tenant p99 vs tenant count",
        {isolation: [
            (float(c), sweep[isolation][c]["worst_p99_ns"])
            for c in counts]
         for isolation in data["isolations"]},
        "tenants", "worst per-tenant p99 off-chip latency (ns)",
        log_x=True,
        subtitle=f"variant {data.get('variant', '?')}; "
                 "lower and flatter is better isolation",
    ))
    return charts


def _shape_flash_sensitivity(data) -> List[Chart]:
    """Mean flash read latency per device-model policy, plus the
    execution-time slowdown each policy costs against the flat model
    (see docs/DEVICE_MODEL.md)."""
    rows = data["rows"]
    models = list(data["models"])
    latency = _bar(
        "Device model: mean flash read latency",
        {wl: {m: rows[wl][m]["mean_flash_read_ns"] / 1000.0 for m in models}
         for wl in data["workloads"]},
        "mean flash read latency (us)",
        subtitle=f"variant {data.get('variant', '?')}; flat vs deep "
                 "scheduler policies",
        series_order=models,
    )
    slowdown = _bar(
        "Device model: execution-time slowdown vs flat",
        {wl: {m: rows[wl][m]["slowdown_vs_flat"] for m in models}
         for wl in data["workloads"]},
        "execution time / flat execution time",
        subtitle="physical die/plane routing only adds constraints, so "
                 ">= 1.0 is expected",
        series_order=models,
    )
    return [latency, slowdown]


def _shape_prefetch(data) -> List[Chart]:
    return [_single_bar(
        "Ablation: baseline sequential prefetch gain",
        {wl: row["prefetch_gain"] for wl, row in data.items()},
        "prefetch gain", "throughput ratio (with / without prefetch)",
    )]


def _shape_promotion(data) -> List[Chart]:
    return [_line(
        "Ablation: promotion hotness threshold",
        {"throughput": [(float(t), data[t]["ipns"])
                        for t in _fsorted(data)],
         },
        "promotion threshold (touches)", "instructions / ns", log_x=True,
    )]


def _shape_persistence(data) -> List[Chart]:
    # Interval 0 means "never flush"; plot it at the right edge.
    intervals = _fsorted(data)
    finite = [t for t in intervals if float(t) > 0]
    edge = 2 * max((float(t) for t in finite), default=1.0)

    def x_of(t: str) -> float:
        return float(t) if float(t) > 0 else edge

    return [_line(
        "Ablation: baseline dirty-flush interval",
        {"throughput (ipns)": [(x_of(t), data[t]["ipns"])
                               for t in intervals]},
        "flush interval (us; right edge = never)", "instructions / ns",
    ), _line(
        "Ablation: flush interval vs flash write traffic",
        {"flash writes / Mi instr": [(x_of(t), data[t]["flash_writes_per_Mi"])
                                     for t in intervals]},
        "flush interval (us; right edge = never)",
        "flash page writes per Mi instructions",
    )]


def _shape_channel_occupancy(data) -> List[Chart]:
    """Per-channel busy fraction over sim-time (timeline-derived), with
    GC campaign occupancy overlaid as its own series."""
    xs = [float(x) for x in data["window_ms"]]
    channels = data["channels"]
    # The palette has 8 hues; GC takes one slot, channels the rest.
    shown = list(channels)[:7]
    series = {
        f"ch {ch}": list(zip(xs, (float(v) for v in channels[ch])))
        for ch in shown
    }
    if any(float(v) > 0 for v in data.get("gc", [])):
        series["GC"] = list(zip(xs, (float(v) for v in data["gc"])))
    dropped = len(channels) - len(shown)
    subtitle = (
        f"{data.get('workload', '?')} / {data.get('variant', '?')}, deep "
        f"device model; busy command-time per window (>1 = die overlap)"
    )
    if dropped > 0:
        subtitle += f"; {dropped} channel(s) omitted for palette"
    return [_line(
        "Channel occupancy over sim-time (from the timeline trace)",
        series,
        "sim-time (ms)", "busy fraction per window",
        subtitle=subtitle,
    )]


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_ALL_WORKLOADS = "all seven Table I workloads"
_REP_FOUR = "bc, bfs-dense, srad, tpcc"

SPECS: Dict[str, ChartSpec] = {
    spec.figure: spec
    for spec in (
        ChartSpec("fig2", "Base-CSSD slowdown over DRAM-Only", "SS II-C",
                  "bar", _ALL_WORKLOADS, "DRAM-Only, Base-CSSD",
                  "End-to-end slowdown of a naive CXL-SSD vs DRAM "
                  "(paper: 1.5x-31.4x).", _shape_fig2),
        ChartSpec("fig3", "Off-chip latency distribution", "SS II-C",
                  "line", _REP_FOUR, "DRAM-Only, Base-CSSD",
                  "Latency CDFs showing the bimodal fast/flash split "
                  "(one chart per workload, log-x).", _shape_fig3),
        ChartSpec("fig4", "Memory-boundedness", "SS II-C", "bar",
                  _ALL_WORKLOADS, "DRAM-Only, Base-CSSD",
                  "Fraction of cycles bounded by memory on DRAM vs "
                  "CXL-SSD.", _shape_fig4),
        ChartSpec("fig5", "Read cacheline locality", "SS II-C", "line",
                  "bc, dlrm, radix, ycsb", "footprint:cache 1:2..1:128",
                  "CDF of lines touched per page read from flash "
                  "(one chart per workload).",
                  _shape_locality("Fig. 5", "touched")),
        ChartSpec("fig6", "Write cacheline locality", "SS II-C", "line",
                  "bc, dlrm, radix, ycsb", "footprint:cache 1:2..1:128",
                  "CDF of dirty lines per page flushed to flash "
                  "(one chart per workload).",
                  _shape_locality("Fig. 6", "dirtied")),
        ChartSpec("fig9", "Context-switch threshold sweep", "SS III-A",
                  "line", _REP_FOUR, "SkyByte-Full, thresholds 2..80 us",
                  "Normalized execution time vs the Algorithm 1 trigger "
                  "threshold (paper: 2 us is best).", _shape_fig9),
        ChartSpec("fig10", "Scheduling policies", "SS III-A", "bar",
                  "bc, radix, srad, tpcc", "SkyByte-Full; RR/Random/CFS",
                  "Execution time under the three OS scheduling policies "
                  "(paper: near-identical).", _shape_fig10),
        ChartSpec("fig14", "Overall performance", "SS VI-B", "bar",
                  _ALL_WORKLOADS, "the eight Fig. 14 designs",
                  "Normalized execution time of every design vs Base-CSSD "
                  "(paper: SkyByte-Full 6.11x mean speedup).", _shape_fig14),
        ChartSpec("fig15", "Thread scaling", "SS VI-C", "line",
                  _ALL_WORKLOADS, "SkyByte-Full at 8..48 threads",
                  "Throughput and SSD bandwidth vs thread count, "
                  "normalized to SkyByte-WP at 8 threads.", _shape_fig15),
        ChartSpec("fig16", "Request breakdown", "SS VI-C", "stacked",
                  _ALL_WORKLOADS, "SkyByte-Full",
                  "Fractions of H-R/W, S-R-H, S-R-M and S-W requests, "
                  "stacked per workload.", _shape_fig16),
        ChartSpec("fig17", "AMAT decomposition", "SS VI-C", "stacked",
                  _ALL_WORKLOADS, "six designs Base-CSSD..DRAM-Only",
                  "Average memory access time stacked into its "
                  "host-DRAM/protocol/indexing/SSD-DRAM/flash components "
                  "(one chart per workload).", _shape_fig17),
        ChartSpec("fig18", "Flash write traffic", "SS VI-D", "bar",
                  _ALL_WORKLOADS, "the Fig. 14 designs except DRAM-Only",
                  "Flash writes per instruction normalized to Base-CSSD.",
                  _shape_fig18),
        ChartSpec("fig19", "Write-log size: performance", "SS VI-E",
                  "line", _ALL_WORKLOADS, "SkyByte-Full, log 16..256 KiB",
                  "Execution time vs log size at fixed total SSD DRAM.",
                  _shape_fig19),
        ChartSpec("fig20", "Write-log size: traffic", "SS VI-E", "line",
                  _ALL_WORKLOADS, "SkyByte-Full, log 16..256 KiB",
                  "Flash write traffic vs log size.", _shape_fig20),
        ChartSpec("fig21", "SSD DRAM size", "SS VI-F", "line",
                  _ALL_WORKLOADS, "Base-CSSD, SkyByte-WP, SkyByte-Full",
                  "Execution time vs SSD DRAM capacity (one chart per "
                  "workload).", _shape_fig21),
        ChartSpec("fig22", "Flash technology", "SS VI-G", "bar",
                  _ALL_WORKLOADS,
                  "SkyByte-P/WP + SkyByte-Full at 16/24/32 threads",
                  "ULL/ULL2/SLC/MLC flash sensitivity (geomean across "
                  "workloads).", _shape_fig22),
        ChartSpec("fig23", "Migration mechanisms", "SS VI-H", "bar",
                  _ALL_WORKLOADS, "SkyByte-C/CT/CP/WCT, AstriFlash-CXL, Full",
                  "SkyByte's counter-based promotion vs TPP sampling and "
                  "AstriFlash.", _shape_fig23),
        ChartSpec("table3", "Flash read latency", "SS VI-C", "bar",
                  _ALL_WORKLOADS, "SkyByte-WP",
                  "Average flash read latency in us (paper: 3.3-25.7 us).",
                  _shape_table3),
        ChartSpec("colocation", "Multi-tenant colocation", "repro SCENARIOS",
                  "bar", "the configured tenant mix (default: web-tier + "
                  "log-ingest)", "one design variant (default SkyByte-Full)",
                  "Per-tenant slowdown vs solo runs, plus stacked "
                  "request-class and AMAT breakdowns, when N scenario "
                  "tenants share one device (see docs/SCENARIOS.md).",
                  _shape_colocation),
        ChartSpec("qos", "Tenant QoS at scale", "repro QOS",
                  "line", "the library scenario mix (web-tier, "
                  "analytics-scan, graph-walk, log-ingest)",
                  "isolation mechanisms none/wfq/priority/"
                  "log-partition/cache-quota",
                  "Per-tenant p99 and SLO-violation rate vs tenant "
                  "count under each isolation mechanism "
                  "(see docs/QOS.md).", _shape_qos),
        ChartSpec("flash-sensitivity", "Flash device-model sensitivity",
                  "repro DEVICE_MODEL", "bar", "bc, dlrm, ycsb",
                  "SkyByte-Full under flat/deep/deep-no-rp/deep-bounded "
                  "device models",
                  "Mean flash read latency and execution-time slowdown "
                  "when commands route to their physical die/plane "
                  "instead of the earliest-free die "
                  "(see docs/DEVICE_MODEL.md).", _shape_flash_sensitivity),
        ChartSpec("cost", "Cost-effectiveness", "SS VI-B", "bar",
                  _ALL_WORKLOADS, "DRAM-Only vs SkyByte-Full",
                  "Performance fraction and $-ratio arithmetic "
                  "(paper: 11.8x cost-effectiveness).", _shape_cost),
        ChartSpec("prefetch-ablation", "Prefetch ablation", "repro DESIGN",
                  "bar", "srad, bc", "Base-CSSD +/- next-page prefetch",
                  "This reproduction's baseline prefetcher ablation.",
                  _shape_prefetch),
        ChartSpec("promotion-threshold", "Promotion threshold",
                  "repro DESIGN", "line", "ycsb",
                  "SkyByte-P, thresholds 8..256",
                  "Hotness threshold sweep of the SS III-C promotion "
                  "counters.", _shape_promotion),
        ChartSpec("persistence-interval", "Persistence interval",
                  "repro DESIGN", "line", "tpcc",
                  "Base-CSSD, flush interval 50 us..never",
                  "The baseline's dirty-flush durability interval.",
                  _shape_persistence),
        ChartSpec("channel-occupancy", "Flash channel occupancy",
                  "repro OBSERVABILITY", "line", "ycsb",
                  "SkyByte-Full, deep device model, timeline tracing",
                  "Per-channel flash busy fraction over sim-time windows, "
                  "derived from the Perfetto timeline trace; GC campaign "
                  "occupancy overlaid (see docs/OBSERVABILITY.md).",
                  _shape_channel_occupancy),
    )
}


def shape_figure(figure: str, data: object) -> List[Chart]:
    """Render-ready charts for ``figure``'s driver payload.

    ``data`` may be the driver's live return value or the parsed JSON
    artifact -- both shapes produce identical charts.
    """
    spec = SPECS.get(figure)
    if spec is None:
        raise KeyError(f"no chart spec registered for figure {figure!r}")
    return spec.shape(_norm(data))
