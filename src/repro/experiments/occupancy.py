"""Timeline-derived channel-occupancy figure (``channel-occupancy``).

Runs one deep-device-model cell with sim-time tracing enabled
(``TraceConfig``) and reduces the recorded flash-operation spans to a
per-channel busy fraction over fixed sim-time windows -- the
channel/plane contention picture the flat horizon model cannot show and
end-of-run aggregates hide.  Because a traced run bypasses the result
cache, this figure always simulates; it is deliberately a single small
cell.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.runner import (
    DEFAULT_SCALE,
    _traces_for,
    resolve_run,
)
from repro.figures.spec import ChartSpec, Figure, line
from repro.sim.system import System
from repro.variants import get_variant

#: The traced cell.
WORKLOAD = "ycsb"
VARIANT = "SkyByte-Full"

#: Fixed number of sim-time windows the run is bucketed into.
WINDOWS = 48

#: Series cap: the SVG palette has 8 hues and one slot goes to the GC
#: overlay, so at most 7 per-channel occupancy lines are emitted.
MAX_CHANNEL_SERIES = 7


def _reduce(_workloads, records, _results) -> Dict[str, object]:
    """Per-channel flash busy fraction over sim-time windows.

    Returns ``{"windows": [...], "channels": {id: [frac...]},
    "gc": [frac...], "meta": {...}}`` where each fraction is the summed
    in-flight flash-command time of that channel inside the window,
    divided by the window length (> 1 means multiple dies were busy in
    parallel).
    """
    config, records_per_thread = resolve_run(
        WORKLOAD,
        VARIANT,
        records_per_thread=records,
        device_model="deep",
    )
    config = config.replace(trace={"enabled": True, "requests": False})
    design = get_variant(VARIANT)
    traces, mlp = _traces_for(
        WORKLOAD, config.threads, records_per_thread, DEFAULT_SCALE,
        config.seed,
    )
    system = System(config, traces, design, workload_mlp=mlp)
    stats = system.run()
    tracer = system.tracer
    events = tracer.events() if tracer is not None else []

    flash_ops = [
        e for e in events
        if e.get("ph") == "X" and str(e.get("name", "")).startswith("flash.")
    ]
    gc_ops = [
        e for e in events if e.get("ph") == "X" and e.get("name") == "gc.campaign"
    ]
    start_us = stats.start_ns / 1000.0
    end_us = max(
        [e["ts"] + e["dur"] for e in flash_ops + gc_ops],
        default=stats.end_ns / 1000.0,
    )
    span_us = max(end_us - start_us, 1e-9)
    window_us = span_us / WINDOWS

    def bucketize(ops: List[dict], key) -> Dict[int, List[float]]:
        busy: Dict[int, List[float]] = {}
        for op in ops:
            ident = key(op)
            lanes = busy.setdefault(ident, [0.0] * WINDOWS)
            t0 = op["ts"] - start_us
            t1 = t0 + op["dur"]
            first = max(0, int(t0 // window_us))
            last = min(WINDOWS - 1, int(t1 // window_us))
            for w in range(first, last + 1):
                lo = w * window_us
                hi = lo + window_us
                overlap = min(t1, hi) - max(t0, lo)
                if overlap > 0:
                    lanes[w] += overlap
        return busy

    def channel_of(op: dict) -> int:
        return int(op.get("args", {}).get("channel", 0))

    per_channel = bucketize(flash_ops, channel_of)
    gc_busy = bucketize(gc_ops, lambda _op: 0).get(0, [0.0] * WINDOWS)

    window_mid_ms = [
        (start_us + (w + 0.5) * window_us) / 1000.0 for w in range(WINDOWS)
    ]
    channels = {
        str(ch): [round(b / window_us, 4) for b in lanes]
        for ch, lanes in sorted(per_channel.items())
    }
    return {
        "workload": WORKLOAD,
        "variant": VARIANT,
        "window_ms": window_mid_ms,
        "channels": channels,
        "gc": [round(b / window_us, 4) for b in gc_busy],
        "meta": {
            "records_per_thread": records_per_thread,
            "device_model": "deep",
            "windows": WINDOWS,
            "window_us": round(window_us, 3),
            "flash_ops_traced": len(flash_ops),
            "gc_campaigns_traced": len(gc_ops),
            "events_dropped": tracer.dropped if tracer is not None else 0,
            "gc_invocations": stats.gc_invocations,
        },
    }


def _shape(data):
    """Per-channel busy fraction over sim-time (timeline-derived), with
    GC campaign occupancy overlaid as its own series."""
    xs = [float(x) for x in data["window_ms"]]
    channels = data["channels"]
    shown = list(channels)[:MAX_CHANNEL_SERIES]
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
    return [line(
        "Channel occupancy over sim-time (from the timeline trace)",
        series,
        "sim-time (ms)", "busy fraction per window",
        subtitle=subtitle,
    )]


CHANNEL_OCCUPANCY = Figure(
    ChartSpec("channel-occupancy", "Flash channel occupancy",
              "repro OBSERVABILITY", "line",
              "Per-channel flash busy fraction over sim-time windows, "
              "derived from the Perfetto timeline trace; GC campaign "
              "occupancy overlaid (see docs/OBSERVABILITY.md).", _shape),
    _reduce)
