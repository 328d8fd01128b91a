"""The evaluation's figures (one module per evaluation section) and the
harness that runs their cells.

Each figure is a :class:`~repro.figures.spec.Figure` record -- its
cells, their reduction to its payload, its chart -- listed in
:data:`repro.experiments.jobspec.FIGURES`.  Every cell runs through
:mod:`repro.experiments.orchestrator`, which provides pluggable
execution backends (``backend=``: kept local cell processes or
dial-in TCP workers -- see :mod:`repro.experiments.backends`) and a
size-capped, concurrency-safe on-disk result cache (``cache=``).
"""

from repro.experiments.backends import (
    CellPolicy,
    DistributedBackend,
    LocalProcessBackend,
    SweepBackend,
)
from repro.experiments.orchestrator import (
    CellUpdate,
    ResultCache,
    SweepJob,
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
    "run_sweep",
    "run_workload",
    "stream_sweep",
    "sweep_product",
]
