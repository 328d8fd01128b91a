"""Per-figure experiment drivers (one module per evaluation section).

All drivers route their independent simulation cells through
:mod:`repro.experiments.orchestrator`, which provides pluggable
execution backends (``backend=``: process pool, thread pool, or
dial-in TCP workers -- see :mod:`repro.experiments.backends`) and a
size-capped, concurrency-safe on-disk result cache.
"""

from repro.experiments.backends import (
    CellPolicy,
    DistributedBackend,
    LocalProcessBackend,
    SweepBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.experiments.orchestrator import (
    CellUpdate,
    ResultCache,
    SweepJob,
    run_pairs,
    run_sweep,
    stream_sweep,
    sweep_product,
)
from repro.experiments.runner import RunResult, run_workload

__all__ = [
    "CellPolicy",
    "CellUpdate",
    "DistributedBackend",
    "LocalProcessBackend",
    "ResultCache",
    "RunResult",
    "SweepBackend",
    "SweepJob",
    "ThreadBackend",
    "resolve_backend",
    "run_pairs",
    "run_sweep",
    "run_workload",
    "stream_sweep",
    "sweep_product",
]
