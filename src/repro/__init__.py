"""SkyByte reproduction: a memory-semantic CXL-SSD simulator.

This package reproduces *SkyByte: Architecting an Efficient
Memory-Semantic CXL-based SSD with OS and Hardware Co-design* (HPCA
2025): the CXL-SSD device model (flash, FTL, GC, DRAM cache), SkyByte's
three mechanisms (coordinated context switch, cacheline write log with
two-level hash indexing, adaptive page migration), the host model
(interval cores, OS scheduler, page table, PLB), the SS VI-H baselines
(TPP, AstriFlash-CXL), the Table I workload models and the experiment
harness regenerating every evaluation figure and table.

Quickstart::

    from repro import run_workload

    base = run_workload("bc", "Base-CSSD", records_per_thread=2000)
    full = run_workload("bc", "SkyByte-Full", records_per_thread=2000)
    print(f"speedup: {full.speedup_over(base):.2f}x")
"""

from repro.config import (
    CACHELINE_SIZE,
    CACHELINES_PER_PAGE,
    FLASH_TIMINGS,
    PAGE_SIZE,
    CPUConfig,
    CXLConfig,
    FlashGeometry,
    FlashTiming,
    OSConfig,
    SimConfig,
    SkyByteConfig,
    SSDConfig,
    paper_config,
    scaled_config,
)
from repro.experiments.backends import CellPolicy, LocalProcessBackend
from repro.experiments.orchestrator import (
    CellUpdate,
    ResultCache,
    SweepJob,
    run_sweep,
    stream_sweep,
    sweep_product,
)
from repro.experiments.runner import RunResult, build_config, run_workload
from repro.sim.stats import SimStats
from repro.sim.system import System, run_system
from repro.variants import (
    MAIN_VARIANTS,
    MIGRATION_VARIANTS,
    VARIANTS,
    DesignVariant,
    get_variant,
)
from repro.workloads.suites import (
    TABLE_I,
    WORKLOAD_NAMES,
    get_model,
    get_spec,
    representative_four,
)

__version__ = "1.0.0"

__all__ = [
    "CACHELINE_SIZE",
    "CACHELINES_PER_PAGE",
    "PAGE_SIZE",
    "FLASH_TIMINGS",
    "CPUConfig",
    "CXLConfig",
    "FlashGeometry",
    "FlashTiming",
    "OSConfig",
    "SSDConfig",
    "SimConfig",
    "SkyByteConfig",
    "paper_config",
    "scaled_config",
    "CellPolicy",
    "CellUpdate",
    "LocalProcessBackend",
    "ResultCache",
    "RunResult",
    "SweepJob",
    "build_config",
    "run_sweep",
    "run_workload",
    "stream_sweep",
    "sweep_product",
    "SimStats",
    "System",
    "run_system",
    "DesignVariant",
    "VARIANTS",
    "MAIN_VARIANTS",
    "MIGRATION_VARIANTS",
    "get_variant",
    "TABLE_I",
    "WORKLOAD_NAMES",
    "get_model",
    "get_spec",
    "representative_four",
    "__version__",
]
