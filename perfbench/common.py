"""Helpers shared by the perfbench workloads: seeds, digests, spec,
statistics and host context."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import time
from typing import Dict, Iterable, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch output (service state, caches, span dumps); gitignored.
OUT_DIR = os.path.join(ROOT, ".perfbench")


def load_spec() -> Dict[str, object]:
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        return json.load(handle)


def derive_seed(seed: int, tag: str) -> int:
    """A program seed derived from the benchmark seed and a tag, so the
    same ``--seed`` always hands the program the same inputs."""
    blob = hashlib.sha256(f"perfbench:{seed}:{tag}".encode()).digest()
    return int.from_bytes(blob[:4], "big") % 2_000_000_000


def digest(result_dict: Dict[str, object]) -> str:
    """SHA-256 of a ``RunResult.to_dict()`` in canonical JSON."""
    blob = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cell_id(workload: str, variant: str) -> str:
    return f"{workload}/{variant}"


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, ``p`` in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb(pid: int = 0) -> float:
    """Peak resident set of this process (``pid`` 0) or of a live
    child, in MiB."""
    if pid == 0:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (best of three), recorded
    beside every run so a slow host can be told from a slow commit."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best


def clean_environment() -> None:
    """Drop ``REPRO_*`` settings so the program sees only the generated
    inputs (records, seeds, worker counts), never the caller's shell."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def per_layer_defaults(spec: Dict[str, object]) -> Dict[str, float]:
    """Every per-layer metric at 0: a layer a workload never enters."""
    return {m["name"]: 0.0 for m in spec["per_layer"]}


def sim_summary(panel: List[List[object]], full: str,
                base: str) -> Dict[str, float]:
    """The end-to-end sim-time metrics over a panel of passes, one pass
    (a list of ``RunResult``) per program seed.

    Per workload, each quantity is the median over the panel's seeds;
    across workloads it is aggregated as in the paper: the geomean of
    SkyByte-Full / Base-CSSD speed-ups (Fig. 14), the mean AMAT of the
    SkyByte-Full cells (Fig. 17) and their summed flash page writes
    (Fig. 18).  With one seed this is exactly the paper's aggregate.
    """
    cells = [{(r.workload, r.variant): r for r in results}
             for results in panel]
    workloads = sorted({w for by_cell in cells for w, _ in by_cell})

    def per_workload(fn) -> List[float]:
        return [median(fn(by_cell, w) for by_cell in cells)
                for w in workloads]

    return {
        "sim_speedup_vs_base": geomean(per_workload(
            lambda c, w: c[(w, full)].speedup_over(c[(w, base)]))),
        "sim_amat_ns": sum(per_workload(
            lambda c, w: c[(w, full)].stats.amat_ns)) / len(workloads),
        "sim_flash_pages_written": float(sum(per_workload(
            lambda c, w: c[(w, full)].stats.flash_page_writes))),
    }


def sim_layers(results: List[object], full: str) -> Dict[str, float]:
    """The per-layer sim-time counts over ``results`` (deterministic
    for a seed)."""
    from repro.sim.stats import LatencyHistogram

    full_cells = [r for r in results if r.variant == full]
    out: Dict[str, float] = {}
    for key, name in (("Host DRAM", "host_dram"), ("CXL Protocol", "protocol"),
                      ("Indexing", "indexing"), ("SSD DRAM", "ssd_dram"),
                      ("Flash", "flash")):
        out[f"sim.amat.{name}_ns"] = sum(
            r.stats.amat_breakdown()[key] for r in full_cells
        ) / len(full_cells)
    stats = [r.stats for r in results]
    hits = sum(s.cache_hits for s in stats)
    misses = sum(s.cache_misses for s in stats)
    appends = sum(s.log_appends for s in stats)
    accesses = sum(s.amat_accesses for s in stats)
    host_written = sum(s.host_lines_written for s in stats)
    flash_written = sum(s.flash_bytes_written for s in stats)
    reads = LatencyHistogram()
    for s in stats:
        reads.merge(s.flash_read_latency)
    devices = [s.device for s in stats if s.device is not None]
    samples = sum(d.queue_depth_samples for d in devices)
    out.update({
        "sim.core.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "sim.core.log_coalesce_ratio": sum(
            s.log_coalesced_updates for s in stats) / appends
        if appends else 0.0,
        "sim.host.promoted_hit_ratio": sum(s.promoted_hits for s in stats)
        / accesses if accesses else 0.0,
        "sim.host.context_switches": float(
            sum(s.context_switches for s in stats)),
        "sim.ssd.write_amplification": flash_written / (host_written * 64)
        if host_written else 0.0,
        "sim.ssd.gc_page_moves": float(sum(s.gc_page_moves for s in stats)),
        "sim.ssd.flash_read_p99_ns": reads.percentile(99)
        if reads.count else 0.0,
        "sim.ssd.queue_depth_mean": sum(d.queue_depth_sum for d in devices)
        / samples if samples else 0.0,
    })
    return out
