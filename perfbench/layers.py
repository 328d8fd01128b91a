"""Layer tracing from outside the program: runtime wrappers around the
public entry points of each ``repro`` package.

:class:`LayerTracer` replaces each entry point listed in ``ENTRY_POINTS``
with a wrapper that times the call and keeps a span stack, so every
layer's *self* time (span time minus the time its child spans cover) is
known.  Nothing under ``src/`` changes: the wrappers are installed on
the classes before any :class:`~repro.sim.system.System` is built and
removed again with :meth:`LayerTracer.uninstall`.

Spans are kept in memory.  Coarse spans (one per cell, per prepare, per
GC campaign, ...) are kept one by one with name, start, end, parent and
cell id; the per-access layers fire millions of times per pass, so
their spans are folded into per-cell totals (self seconds and calls) at
the moment they close.  :meth:`LayerTracer.dump` writes both out once,
at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Dict, List, Optional, Tuple

#: (layer metric name, module, class, methods).  A method is wrapped
#: only on the class that defines it, so an inherited entry point is
#: timed once.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("workloads.generate", "repro.workloads.models", "WorkloadModel",
     ("generate",)),
    ("workloads.generate", "repro.scenarios.phases", "Scenario",
     ("generate",)),
    ("ssd.precondition", "repro.ssd.ftl", "PageFTL", ("precondition",)),
    ("sim.build", "repro.sim.system", "System", ("__init__",)),
    ("sim.run", "repro.sim.system", "System", ("run",)),
    ("sim.prepare", "repro.sim.system", "System", ("prepare",)),
    ("sim.engine", "repro.sim.engine", "Engine", ("run",)),
    ("sim.memory_access", "repro.sim.system", "System", ("memory_access",)),
    ("sim.dram_window", "repro.sim.system", "System",
     ("dram_window_access",)),
    ("sim.stats", "repro.sim.stats", "SimStats", ("*mutators",)),
    ("core.controller", "repro.core.controller", "SkyByteController",
     ("access", "access_line")),
    ("ssd.base_controller", "repro.ssd.base_controller",
     "BaseCSSDController", ("access", "access_line")),
    ("core.migration", "repro.core.migration", "MigrationEngine",
     ("on_page_access",)),
    ("core.compaction", "repro.core.compaction", "LogCompactor",
     ("compact",)),
    ("host.scheduler", "repro.host.scheduler", "Scheduler",
     ("pick_next", "enqueue")),
    ("host.page_table", "repro.host.page_table", "PageTable",
     ("coldest_promoted",)),
    ("ssd.flash", "repro.ssd.flash", "FlashArray",
     ("read_page", "program_page", "erase_block")),
    ("ssd.flash", "repro.ssd.flash", "DeepFlashArray",
     ("read_page", "program_page", "erase_block")),
    ("ssd.gc", "repro.ssd.gc", "GarbageCollector", ("collect",)),
    ("ssd.gc", "repro.ssd.gc", "BackgroundGarbageCollector", ("collect",)),
)

#: Layers whose spans are kept one by one (the harness's own ``pass`` and
#: ``cell`` spans always are); every other layer is folded into per-cell
#: totals as its spans close.
KEPT_SPANS = frozenset({
    "workloads.generate", "ssd.precondition", "sim.build",
    "sim.run", "sim.prepare", "sim.engine", "core.compaction", "ssd.gc",
})


def _stats_mutators(cls: type) -> List[str]:
    """``SimStats``' public mutators: ``add_*``, ``record_*``,
    ``count_*``."""
    return sorted(
        name for name, value in vars(cls).items()
        if callable(value)
        and name.startswith(("add_", "record_", "count_"))
    )


class LayerTracer:
    """Span stack plus per-cell self-time totals for the wrapped layers."""

    def __init__(self) -> None:
        #: Open spans: [name, start, child seconds, index of the nearest
        #: kept span at or above it].
        self._stack: List[list] = []
        self._cell: Optional[str] = None
        #: (cell, layer) -> [self seconds, calls], since the last reset.
        self.totals: Dict[Tuple[Optional[str], str], List[float]] = {}
        #: ``totals`` of every pass before the last reset.
        self.passes: List[Dict[Tuple[Optional[str], str], List[float]]] = []
        #: Kept spans: (name, start, end, parent index or -1, cell).
        self.spans: List[Tuple[str, float, float, int, Optional[str]]] = []
        self._originals: List[Tuple[type, str, object]] = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for layer, module, cls_name, methods in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            if methods == ("*mutators",):
                methods = tuple(_stats_mutators(cls))
            for method in methods:
                if method not in vars(cls):
                    continue
                original = vars(cls)[method]
                self._originals.append((cls, method, original))
                setattr(cls, method, self._wrap(original, layer))

    def uninstall(self) -> None:
        """Put the original entry points back."""
        for cls, method, original in reversed(self._originals):
            setattr(cls, method, original)
        self._originals = []

    def _wrap(self, fn, layer: str):
        tracer = self
        clock = time.perf_counter
        keep = layer in KEPT_SPANS
        spans = self.spans

        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if keep:
                index = len(spans)
                spans.append(None)
            else:
                index = parent[3]
            frame = [layer, 0.0, 0.0, index]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[2] += duration
                cell = tracer._cell
                total = tracer.totals.get((cell, layer))
                if total is None:
                    total = tracer.totals[(cell, layer)] = [0.0, 0]
                total[0] += duration - frame[2]
                # A span nested in a span of the same layer (an override
                # calling its base, access() calling access_line()) is
                # one call, not two.
                if parent[0] != layer:
                    total[1] += 1
                if keep:
                    spans[index] = (layer, start, end, parent[3], cell)

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- spans the harness opens itself ----------------------------------

    def begin(self, name: str, cell: Optional[str] = None) -> None:
        """Open a harness span (``pass`` or ``cell``)."""
        if cell is not None:
            self._cell = cell
        parent = self._stack[-1][3] if self._stack else -1
        frame = [name, time.perf_counter(), 0.0, len(self.spans)]
        # Reserve the kept-span slot now so children can point at it.
        self.spans.append((name, frame[1], frame[1], parent, self._cell))
        self._stack.append(frame)

    def end(self) -> float:
        """Close the innermost harness span; returns its duration."""
        end = time.perf_counter()
        frame = self._stack.pop()
        name, start, children, index = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        key = (self._cell, name)
        total = self.totals.setdefault(key, [0.0, 0])
        total[0] += duration - children
        total[1] += 1
        self.spans[index] = (name, start, end, self.spans[index][3],
                             self._cell)
        if name == "cell":
            self._cell = None
        return duration

    # -- reading ---------------------------------------------------------

    def layer_totals(self) -> Dict[str, List[float]]:
        """layer -> [self seconds, calls], summed over cells."""
        out: Dict[str, List[float]] = {}
        for (_, layer), (seconds, calls) in self.totals.items():
            acc = out.setdefault(layer, [0.0, 0])
            acc[0] += seconds
            acc[1] += calls
        return out

    def reset(self) -> None:
        """Start a new pass: file the current totals under
        :attr:`passes` (spans stay; they carry their own times)."""
        if self.totals:
            self.passes.append(self.totals)
        self.totals = {}

    def dump(self, path: str, extra: Dict[str, object]) -> None:
        """Write kept spans and every pass's per-cell totals as one JSON
        document."""
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "cell": c}
                for n, s, e, p, c in self.spans
            ],
            "passes": [
                [{"cell": cell, "layer": layer, "self_s": v[0],
                  "calls": v[1]}
                 for (cell, layer), v in sorted(
                     totals.items(), key=lambda kv: (str(kv[0][0]),
                                                     kv[0][1]))]
                for totals in self.passes + [self.totals]
            ],
        }
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
