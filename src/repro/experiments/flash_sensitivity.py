"""Flash device-model sensitivity: flat vs deep scheduler/GC policies.

The deep device model (``docs/DEVICE_MODEL.md``) routes every command to
the die and plane its page physically lives on, so hot blocks contend
for their own unit while the flat model's earliest-free-die dispatch
hides that entirely.  This figure quantifies what the extra fidelity
costs and buys: one cell per (workload, device-model policy), reporting
mean flash read latency, execution-time slowdown against the flat
model, write amplification, and the deep model's GC/queue-depth stats.

All cells fan out through the orchestrator, so they cache, replay and
sweep on every backend like any other experiment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.orchestrator import SweepJob
from repro.experiments.runner import default_records
from repro.figures.spec import ChartSpec, Figure, bar

#: Device-model policies compared, in plotting order: the flat baseline,
#: the full deep model, deep without read priority (reads queue FIFO
#: behind programs), and deep with a bounded read-bypass budget.
MODEL_SPECS: Dict[str, Optional[Dict[str, object]]] = {
    "flat": None,
    "deep": {"kind": "deep"},
    "deep-no-rp": {"kind": "deep", "read_priority": False},
    "deep-bounded": {"kind": "deep", "max_read_bypass": 4},
}

#: Default workload slice: the read-heavy pointer chaser, the scan-heavy
#: analytics mix, and the write-heavy stream -- the three Table I shapes
#: the scheduler policies separate most.
DEFAULT_WORKLOADS = ("tab1-bc", "tab1-dlrm", "tab1-ycsb")
VARIANT = "SkyByte-Full"


def _cells(workloads: Sequence[str], records: Optional[int]) -> List[SweepJob]:
    records = records or default_records()
    return [
        SweepJob.make(
            wl,
            VARIANT,
            records_per_thread=records,
            device_model=MODEL_SPECS[model],
        )
        for wl in workloads
        for model in MODEL_SPECS
    ]


def _reduce(workloads, records, results) -> Dict[str, object]:
    """One cell per (workload, device-model policy).

    Returns ``{"variant", "records_per_thread", "models", "workloads",
    "rows"}`` where ``rows[workload][model]`` holds execution time, mean
    flash read latency, slowdown vs the flat cell, write amplification,
    and (deep cells) GC and queue-depth counters.
    """
    sweep = iter(results)
    cells = {wl: {model: next(sweep) for model in MODEL_SPECS} for wl in workloads}
    rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    for wl in workloads:
        flat_ns = max(cells[wl]["flat"].stats.execution_ns, 1e-12)
        row: Dict[str, Dict[str, float]] = {}
        for model in MODEL_SPECS:
            stats = cells[wl][model].stats
            entry = {
                "execution_ns": stats.execution_ns,
                "mean_flash_read_ns": stats.flash_read_latency.mean,
                "p99_flash_read_ns": stats.flash_read_latency.percentile(99.0),
                "write_amplification": stats.write_amplification,
                "flash_block_erases": float(stats.flash_block_erases),
                "gc_invocations": float(stats.gc_invocations),
                "slowdown_vs_flat": stats.execution_ns / flat_ns,
            }
            if stats.device is not None:
                entry["gc_reads"] = float(stats.device.gc_reads)
                entry["gc_programs"] = float(stats.device.gc_programs)
                entry["gc_erases"] = float(stats.device.gc_erases)
                entry["background_gc_campaigns"] = float(
                    stats.device.background_campaigns
                )
                entry["mean_queue_depth"] = stats.device.mean_queue_depth
                entry["max_queue_depth"] = float(stats.device.max_queue_depth)
            row[model] = entry
        rows[wl] = row
    return {
        "variant": VARIANT,
        "records_per_thread": records or default_records(),
        "models": list(MODEL_SPECS),
        "workloads": list(workloads),
        "rows": rows,
    }


def _shape(data):
    """Mean flash read latency per device-model policy, plus the
    execution-time slowdown each policy costs against the flat model
    (see docs/DEVICE_MODEL.md)."""
    rows = data["rows"]
    models = list(data["models"])
    latency = bar(
        "Device model: mean flash read latency",
        {wl: {m: rows[wl][m]["mean_flash_read_ns"] / 1000.0 for m in models}
         for wl in data["workloads"]},
        "mean flash read latency (us)",
        subtitle=f"variant {data.get('variant', '?')}; flat vs deep "
                 "scheduler policies",
        series_order=models,
    )
    slowdown = bar(
        "Device model: execution-time slowdown vs flat",
        {wl: {m: rows[wl][m]["slowdown_vs_flat"] for m in models}
         for wl in data["workloads"]},
        "execution time / flat execution time",
        subtitle="physical die/plane routing only adds constraints, so "
                 ">= 1.0 is expected",
        series_order=models,
    )
    return [latency, slowdown]


FLASH_SENSITIVITY = Figure(
    ChartSpec("flash-sensitivity", "Flash device-model sensitivity",
              "repro DEVICE_MODEL", "bar",
              "Mean flash read latency and execution-time slowdown when "
              "commands route to their physical die/plane instead of the "
              "earliest-free die (see docs/DEVICE_MODEL.md).", _shape),
    _reduce, _cells, DEFAULT_WORKLOADS)
