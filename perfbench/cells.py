"""In-process workloads (``cells-flat``, ``cells-deep-gc``): a closed
loop on the calling thread that simulates one cell at a time.

A run is: set-up (imports, trace synthesis and an untimed first pass
that fills the trace and FTL memos), then timed passes over the cell
list until ``--seconds`` have passed, each followed by *warm* passes
that serve the same cells from a result cache.  Then the rest of the
run's seed panel is simulated once, untimed, for the sim metrics, and
two more set-ups run in fresh interpreters so ``setup_s`` is a median.

Host times use each cell's fastest timed repetition.  On a shared
2-core container the host's speed is bimodal (a fixed pure-Python loop
takes either ~26 ms or ~34 ms, switching within seconds), so a median
flips between the two modes from run to run, while the fastest
repetition stays put.

Every cell result is checked against the first pass of its seed and,
for the pinned seed, against ``digests.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    HERE, OUT_DIR, cell_id, derive_seed, digest, median, peak_rss_mb,
    percentile, per_layer_defaults, sim_layers, sim_summary,
)

#: Extra set-ups, in fresh interpreters side by side, for the
#: ``setup_s`` median.
SETUP_PROBES = 2
#: Warm (all-cache) passes after each timed pass.
WARM_REPEATS = 40
#: Timed passes a run makes at least, however short ``--seconds`` is.
MIN_PASSES = 3
#: Largest share of a traced pass that no wrapper may account for.
UNATTRIBUTED_TOLERANCE = 0.10

FULL, BASE = "SkyByte-Full", "Base-CSSD"


class Checker:
    """Counts operations and failures; a failure is a digest mismatch or
    an exception."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)

    def check(self, label: str, got: Optional[str], want: Optional[str]) -> None:
        self.expect(got is not None and got == want,
                    f"{label}: got {got} want {want}")

    def fail(self, label: str, error: str) -> None:
        self.expect(False, f"{label}: {error}")


def cell_list(workload: Dict[str, object]) -> List[Tuple[str, str]]:
    return [(w, v) for w in workload["workloads"] for v in workload["variants"]]


def pinned_digests(name: str, seed: int) -> Optional[Dict[str, object]]:
    """``digests.json``'s pins for this workload, keyed by seed tag, if
    ``seed`` is the pinned seed."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    if int(pins["seed"]) != seed:
        return None
    return pins["workloads"].get(name)


class Panel:
    """The program seeds of one run: panel seed ``k`` simulates the cells
    with ``derive_seed(seed, "cells-<k>")``.  Timed passes repeat seed 0;
    the others run once for the sim metrics.  The first pass of each
    seed is the reference every later pass of it must match."""

    def __init__(self, name: str, workload: Dict[str, object],
                 seed: int) -> None:
        self.size = int(workload.get("seeds_per_run", 1))
        self.tags = [f"cells-{k}" for k in range(self.size)]
        self.kwargs = []
        for tag in self.tags:
            kwargs = {"records_per_thread": int(workload["records"]),
                      "seed": derive_seed(seed, tag)}
            if workload.get("device_model"):
                kwargs["device_model"] = workload["device_model"]
            self.kwargs.append(kwargs)
        self.pins = pinned_digests(name, seed) or {}
        self.digests: List[Optional[Dict[str, str]]] = [None] * self.size
        self.results: List[Optional[list]] = [None] * self.size

    def check(self, k: int, results, digests, checker: Checker,
              label: str) -> bool:
        """Check one pass of panel seed ``k``; returns True on its
        first pass (which becomes the reference)."""
        first = self.digests[k] is None
        if first:
            self.digests[k], self.results[k] = digests, results
            pinned = self.pins.get(self.tags[k])
            if pinned is not None:
                for cell, got in digests.items():
                    checker.check(f"pinned {cell}", got, pinned.get(cell))
        else:
            for cell, got in digests.items():
                checker.check(f"{label} {cell}", got, self.digests[k][cell])
        return first

    def complete(self) -> List[list]:
        return [r for r in self.results if r is not None]


def run_pass(cells, kwargs, tracer=None):
    """Simulate every cell once; returns (results, digests, finish
    offsets from pass start, wall seconds).  Digests are taken after
    the clock stops."""
    from repro.experiments.runner import run_workload

    results, offsets = [], []
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin("pass")
    for workload, variant in cells:
        if tracer is not None:
            tracer.begin("cell", cell=cell_id(workload, variant))
        try:
            results.append(run_workload(workload, variant, **kwargs))
        finally:
            if tracer is not None:
                tracer.end()
        offsets.append(time.perf_counter() - start)
    wall = tracer.end() if tracer is not None else time.perf_counter() - start
    digests = {
        cell_id(r.workload, r.variant): digest(r.to_dict()) for r in results
    }
    return results, digests, offsets, wall


def setup(panel: Panel, cells, t0: float, tracer=None):
    """Imports plus the untimed first pass (panel seed 0); returns
    (seconds since ``t0``, results, digests)."""
    import repro.experiments.runner  # noqa: F401 - timed as set-up

    results, digests, _, _ = run_pass(cells, panel.kwargs[0], tracer)
    return time.perf_counter() - t0, results, digests


def probe(name: str, workload: Dict[str, object], seed: int,
          t0: float) -> Dict[str, object]:
    """One set-up in this (fresh) interpreter, for ``--setup-probe``."""
    seconds, _, digests = setup(Panel(name, workload, seed),
                                cell_list(workload), t0)
    return {"setup_s": seconds, "digests": digests}


def _probe_setups(name: str, seed: int, checker: Checker,
                  reference: Dict[str, str]) -> List[float]:
    """``SETUP_PROBES`` set-ups in fresh interpreters, run side by side
    (one per core)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", name, "--seed", str(seed), "--setup-probe"]
    procs = [subprocess.Popen(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(SETUP_PROBES)]
    seconds = []
    for proc in procs:
        try:
            out, err = proc.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            checker.fail("setup probe", "timed out")
            continue
        if proc.returncode != 0:
            checker.fail("setup probe", f"exited {proc.returncode}: "
                                        f"{err.strip()[-400:]}")
            continue
        probed = json.loads(out.strip().splitlines()[-1])
        seconds.append(float(probed["setup_s"]))
        for cell, got in probed["digests"].items():
            checker.check(f"probe {cell}", got, reference.get(cell))
    return seconds


def fastest(passes: List[List[float]]) -> List[float]:
    """Per cell, its fastest wall over the timed repetitions."""
    return [min(walls) for walls in zip(*passes)]


def run(name: str, workload: Dict[str, object], spec: Dict[str, object],
        seed: int, seconds: float, trace: bool, t0: float) -> Dict[str, object]:
    checker = Checker()
    panel = Panel(name, workload, seed)
    cells = cell_list(workload)
    tracer = None
    if trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    setup_s, results, digests = setup(panel, cells, t0, tracer)
    panel.check(0, results, digests, checker, "setup")
    if trace:
        return _traced(name, spec, seed, seconds, tracer, checker, cells,
                       panel)

    from repro.experiments.orchestrator import SweepJob
    from repro.service.store import SqliteResultCache

    cache_dir = os.path.join(OUT_DIR, f"cache-{os.getpid()}")
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = SqliteResultCache(cache_dir)
    keys = [SweepJob.make(w, v, **panel.kwargs[0]).key() for w, v in cells]
    for key, result in zip(keys, results):
        cache.put(key, result)
    accesses = sum(r.stats.amat_accesses for r in results)

    cell_walls, warm = [], []
    begin = time.perf_counter()
    try:
        while (len(cell_walls) < MIN_PASSES
               or time.perf_counter() - begin < seconds):
            results, digests, offsets, _ = run_pass(cells, panel.kwargs[0])
            cell_walls.append([b - a for a, b in zip([0.0] + offsets,
                                                     offsets)])
            panel.check(0, results, digests, checker, "timed")
            for _ in range(WARM_REPEATS):
                warm.append(_warm_pass(cache, cells, keys, panel.digests[0],
                                       checker))
    finally:
        cache.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    for k in range(1, panel.size):
        results, digests, _, _ = run_pass(cells, panel.kwargs[k])
        panel.check(k, results, digests, checker, "panel")
    rss = peak_rss_mb()
    setups = [setup_s] + _probe_setups(name, seed, checker, panel.digests[0])

    best = fastest(cell_walls)
    latencies = [sum(best[:i + 1]) for i in range(len(best))]
    metrics = {
        "setup_s": median(setups),
        "accesses_per_s": accesses / sum(best),
        "peak_rss_mb": rss,
        "job_cold_s": sum(best),
        "job_warm_s": min(warm),
        "first_cell_s": best[0],
        "cell_latency_s_p50": percentile(latencies, 50),
        "cell_latency_s_p90": percentile(latencies, 90),
    }
    metrics.update(sim_summary(panel.complete(), FULL, BASE))
    context = {
        "timed_passes": len(cell_walls),
        "timed_pass_walls_s": [sum(w) for w in cell_walls],
        "warm_passes": len(warm),
        "cell_latency_samples": len(latencies),
        "setup_samples_s": setups,
        "cells": len(cells),
        "seeds_per_run": panel.size,
    }
    return {"checker": checker, "metrics": metrics, "context": context}


def _warm_pass(cache, cells, keys, reference, checker) -> float:
    """Serve every cell from the result cache; returns wall seconds."""
    start = time.perf_counter()
    found = [cache.get(key) for key in keys]
    wall = time.perf_counter() - start
    for (workload, variant), result in zip(cells, found):
        label = cell_id(workload, variant)
        got = digest(result.to_dict()) if result is not None else None
        checker.check(f"warm {label}", got, reference[label])
    return wall


def traced_pass(tracer, cells, kwargs):
    """One pass under the tracer; returns (results, digests, wall,
    layer totals, (wall, self-time sum, unattributed))."""
    tracer.reset()
    results, digests, _, wall = run_pass(cells, kwargs, tracer)
    totals = tracer.layer_totals()
    accounted = sum(v[0] for v in totals.values())
    remainder = totals["pass"][0] + totals["cell"][0]
    return results, digests, wall, totals, (wall, accounted, remainder)


def untraced_pass(cells, kwargs):
    """One pass without wrappers; returns (results, digests, wall,
    events)."""
    from repro.sim.engine import events_processed

    before = events_processed()
    results, digests, _, wall = run_pass(cells, kwargs)
    return results, digests, wall, events_processed() - before


def summarize_layers(per_pass, generate_s, events, traced_walls,
                     untraced_walls, accounting, checker,
                     results) -> Dict[str, float]:
    """Per-layer metrics from traced passes' totals (mean per pass) and
    untraced passes' walls and event counts; checks layer accounting."""
    def mean_layer(layer: str, index: int) -> float:
        return sum(t.get(layer, [0.0, 0])[index]
                   for t in per_pass) / len(per_pass)

    layers: Dict[str, float] = {}
    for metric, layer in (
        ("ssd.precondition_s", "ssd.precondition"),
        ("sim.build_s", "sim.build"),
        ("sim.run_s", "sim.run"),
        ("sim.prepare_s", "sim.prepare"),
        ("sim.engine_self_s", "sim.engine"),
        ("sim.memory_access_s", "sim.memory_access"),
        ("sim.dram_window_s", "sim.dram_window"),
        ("sim.stats_s", "sim.stats"),
        ("core.controller_s", "core.controller"),
        ("ssd.base_controller_s", "ssd.base_controller"),
        ("core.migration_s", "core.migration"),
        ("core.compaction_s", "core.compaction"),
        ("host.scheduler_s", "host.scheduler"),
        ("host.page_table_s", "host.page_table"),
        ("ssd.flash_s", "ssd.flash"),
        ("ssd.gc_s", "ssd.gc"),
    ):
        layers[metric] = mean_layer(layer, 0)
    for metric, layer in (
        ("sim.memory_access.calls", "sim.memory_access"),
        ("sim.stats.calls", "sim.stats"),
        ("core.controller.calls", "core.controller"),
        ("core.compaction.calls", "core.compaction"),
        ("host.scheduler.calls", "host.scheduler"),
        ("host.page_table.calls", "host.page_table"),
        ("ssd.flash.ops", "ssd.flash"),
        ("ssd.gc.campaigns", "ssd.gc"),
    ):
        layers[metric] = mean_layer(layer, 1)
    layers["workloads.generate_s"] = (
        mean_layer("workloads.generate", 0) if generate_s is None
        else generate_s
    )
    layers["sim.events"] = float(median(events))
    layers["sim.host_us_per_event"] = (
        median(untraced_walls) / median(events) * 1e6
    )
    layers["unattributed_s"] = sum(a[2] for a in accounting) / len(accounting)
    layers["tracing_overhead"] = (
        median(traced_walls) / median(untraced_walls) - 1.0
    )
    layers.update(sim_layers(results, FULL))

    for wall, accounted, remainder in accounting:
        # Self times of every span in a pass telescope to its wall time.
        checker.expect(abs(accounted - wall) <= 1e-6 * max(1.0, wall),
                       f"layer accounting {accounted} != {wall}")
        checker.expect(remainder <= UNATTRIBUTED_TOLERANCE * wall,
                       f"unattributed {remainder:.3f}s over "
                       f"{UNATTRIBUTED_TOLERANCE:.0%} of {wall:.3f}s")
    return layers


def accounting_context(accounting) -> Dict[str, object]:
    return {
        "unattributed_tolerance": UNATTRIBUTED_TOLERANCE,
        "layer_accounting": [
            {"wall_s": w, "self_sum_s": a, "unattributed_s": u}
            for w, a, u in accounting
        ],
    }


def _traced(name, spec, seed, seconds, tracer, checker, cells, panel):
    """Traced run: traced timed passes, then untraced ones for the
    tracing overhead and host time per event."""
    setup_generate = tracer.layer_totals().get("workloads.generate", [0.0])[0]
    traced_walls, per_pass, accounting = [], [], []
    untraced_walls, events = [], []
    begin = time.perf_counter()
    while not traced_walls or time.perf_counter() - begin < seconds * 0.6:
        results, digests, wall, totals, account = traced_pass(
            tracer, cells, panel.kwargs[0])
        panel.check(0, results, digests, checker, "traced")
        traced_walls.append(wall)
        per_pass.append(totals)
        accounting.append(account)
    tracer.uninstall()
    begin = time.perf_counter()
    while not untraced_walls or time.perf_counter() - begin < seconds * 0.4:
        results, digests, wall, count = untraced_pass(cells, panel.kwargs[0])
        panel.check(0, results, digests, checker, "untraced")
        untraced_walls.append(wall)
        events.append(count)

    layers = per_layer_defaults(spec)
    layers.update(summarize_layers(
        per_pass, setup_generate, events, traced_walls, untraced_walls,
        accounting, checker, panel.results[0]))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json"), {
        "workload": name, "seed": seed,
        "traced_pass_walls_s": traced_walls,
        "untraced_pass_walls_s": untraced_walls,
    })
    context = {"traced_passes": len(traced_walls),
               "untraced_passes": len(untraced_walls)}
    context.update(accounting_context(accounting))
    return {"checker": checker, "metrics": layers, "context": context}
