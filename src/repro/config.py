"""Configuration objects for the SkyByte reproduction.

Every number in the paper's Table II (simulator parameters) and Table IV
(NAND flash timing) is encoded here.  Two families of presets are provided:

* :func:`paper_config` -- the exact parameters of Table II.  Too large to
  simulate at cacheline granularity in Python within seconds, but useful as
  the authoritative record of the paper's setup.
* :func:`scaled_config` -- the default for tests/benchmarks.  Every capacity
  is divided by the same factor so all the ratios the mechanisms care about
  (flash:DRAM, footprint:DRAM, host-budget:DRAM, log:cache) are preserved.
  This mirrors the paper's own scaling step (Samsung's 2 TB/16 GB device was
  scaled to 128 GB/512 MB "as it is impractical to simulate a TB-scale SSD
  at cache line granularity").

All times are in **nanoseconds**, all sizes in **bytes** unless the name
says otherwise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict

# ---------------------------------------------------------------------------
# Fundamental units
# ---------------------------------------------------------------------------

CACHELINE_SIZE = 64
PAGE_SIZE = 4096
CACHELINES_PER_PAGE = PAGE_SIZE // CACHELINE_SIZE

US = 1_000.0  # microsecond in ns
MS = 1_000_000.0  # millisecond in ns

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class FlashTiming:
    """NAND flash operation latencies (paper Table IV)."""

    name: str
    read_ns: float
    program_ns: float
    erase_ns: float


#: Table IV of the paper.
FLASH_TIMINGS: Dict[str, FlashTiming] = {
    "ULL": FlashTiming("ULL", 3 * US, 100 * US, 1000 * US),
    "ULL2": FlashTiming("ULL2", 4 * US, 75 * US, 850 * US),
    "SLC": FlashTiming("SLC", 25 * US, 200 * US, 1500 * US),
    "MLC": FlashTiming("MLC", 50 * US, 600 * US, 3000 * US),
}


@dataclass(frozen=True)
class FlashGeometry:
    """Physical organisation of the flash array.

    The paper's device (Table II): 16 channels, 8 chips/channel, 8 dies/chip,
    1 plane/die, 128 blocks/plane, 256 pages/block, 4 KB pages = 128 GB.

    The simulator treats the *channel* as the unit of contention, matching
    the paper's Algorithm 1 which estimates latency from per-channel queue
    occupancy.  Chips/dies/planes scale capacity and intra-channel
    interleaving.
    """

    channels: int = 16
    chips_per_channel: int = 8
    dies_per_chip: int = 8
    planes_per_die: int = 1
    blocks_per_plane: int = 128
    pages_per_block: int = 256
    page_size: int = PAGE_SIZE

    @property
    def planes_per_channel(self) -> int:
        return self.chips_per_channel * self.dies_per_chip * self.planes_per_die

    @property
    def blocks_per_channel(self) -> int:
        return self.planes_per_channel * self.blocks_per_plane

    @property
    def total_blocks(self) -> int:
        return self.channels * self.blocks_per_channel

    @property
    def pages_per_channel(self) -> int:
        return self.blocks_per_channel * self.pages_per_block

    @property
    def total_pages(self) -> int:
        return self.channels * self.pages_per_channel

    @property
    def total_bytes(self) -> int:
        return self.total_pages * self.page_size


@dataclass(frozen=True)
class SSDConfig:
    """SSD device configuration (Table II, lower half)."""

    geometry: FlashGeometry = field(default_factory=FlashGeometry)
    timing: FlashTiming = FLASH_TIMINGS["ULL"]

    #: Total SSD DRAM dedicated to caching (write log + data cache).
    dram_bytes: int = 512 * MB
    #: Cacheline-granular write log capacity (SkyByte).  64 MB default,
    #: i.e. 1:7 against the 448 MB data cache.
    write_log_bytes: int = 64 * MB
    #: Page-granular data cache associativity.
    cache_ways: int = 16
    #: SSD LPDDR4 DRAM access latency for a cacheline.
    dram_access_ns: float = 95.0
    #: Write-log hash index lookup latency (measured on the FPGA SoC, §V).
    log_index_ns: float = 72.0
    #: Data-cache index lookup latency (measured on the FPGA SoC, §V).
    cache_index_ns: float = 49.0
    #: GC trigger threshold: fraction of pages used before GC starts.
    gc_threshold: float = 0.80
    #: Fraction of a channel's blocks reclaimed per GC campaign.  Small
    #: by design: a campaign should last the "few milliseconds" of §II-C.
    #: (Table II's "# of Blocks to Erase: 19660" is the *cumulative* pool
    #: target of the paper's preconditioning, not a per-campaign count.)
    gc_free_fraction: float = 0.008
    #: Over-provisioning: flash capacity beyond the advertised logical space.
    overprovision: float = 0.25
    #: Base-CSSD sequential next-page prefetch depth (0 disables).
    prefetch_depth: int = 1
    #: Base-CSSD periodic dirty-page persistence interval.  Conventional
    #: CXL-SSD caches keep block-device durability semantics, so dirty
    #: pages are written back after at most this long even while hot
    #: (prior designs flush opportunistically for persistence).  SkyByte
    #: instead holds dirty lines in its battery-backed write log (§IV)
    #: until compaction -- this asymmetry is the "larger coalescing
    #: window" of §III-B.  Set to 0 to disable.
    dirty_flush_interval_ns: float = 100_000.0
    #: Page access count above which a page becomes a migration candidate.
    promotion_threshold: int = 24

    @property
    def data_cache_bytes(self) -> int:
        """DRAM left for the page cache once the write log is carved out."""
        return self.dram_bytes - self.write_log_bytes

    @property
    def write_log_entries(self) -> int:
        return self.write_log_bytes // CACHELINE_SIZE

    @property
    def logical_pages(self) -> int:
        """Host-visible logical page count (flash minus over-provisioning)."""
        return int(self.geometry.total_pages / (1.0 + self.overprovision))


@dataclass(frozen=True)
class CXLConfig:
    """CXL.mem link parameters (Table II: PCIe 5.0 x4)."""

    #: One-way protocol latency added to every CXL.mem transaction.
    protocol_ns: float = 40.0
    #: Link bandwidth in bytes/ns (16 GB/s = 16 B/ns).
    bandwidth_bytes_per_ns: float = 16.0

    def transfer_ns(self, nbytes: int) -> float:
        """Serialisation delay for ``nbytes`` on the link."""
        return nbytes / self.bandwidth_bytes_per_ns


@dataclass(frozen=True)
class CPUConfig:
    """Host CPU parameters (Table II, upper half)."""

    cores: int = 8
    freq_ghz: float = 4.0
    rob_entries: int = 256
    #: Peak IPC used by the interval model between off-chip events.
    peak_ipc: float = 3.0
    l1_mshrs: int = 8
    l2_mshrs: int = 128
    l3_mshrs: int = 1024
    #: Host DDR5 load-to-use latency.
    dram_latency_ns: float = 70.0
    #: Aggregate host DRAM bandwidth in bytes/ns (8 channels x 32 GB/s).
    dram_bandwidth_bytes_per_ns: float = 256.0
    #: Maximum total size of promoted pages in host DRAM (Table II: 2 GB).
    host_promote_budget_bytes: int = 2 * GB

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz


@dataclass(frozen=True)
class OSConfig:
    """Host OS scheduling parameters (§III-A)."""

    #: Measured context switch overhead (Table II: 2 us).
    context_switch_ns: float = 2 * US
    #: Context switch trigger threshold for Algorithm 1 (Table II: 2 us).
    cs_threshold_ns: float = 2 * US
    #: Thread scheduling policy: "RR", "RANDOM", or "FAIRNESS" (CFS).
    t_policy: str = "FAIRNESS"
    #: Per-core cost of the TLB shootdown IPI after a page migration.
    tlb_shootdown_ns: float = 1_000.0
    #: Demotion hysteresis: a promoted page must have been idle this long
    #: before it may be evicted to make room (prevents promotion churn).
    demote_min_idle_ns: float = 200_000.0
    #: Fixed OS-side cost of handling one migration interrupt (MSI-X,
    #: allocation, page copy issue).
    migration_handling_ns: float = 3_000.0
    #: User-level (AstriFlash-style) thread switch overhead.
    user_level_switch_ns: float = 500.0
    #: Scheduling quantum: a thread holding a core this long is preempted
    #: if other threads wait (keeps >cores thread counts fair even without
    #: device-triggered switches).
    quantum_ns: float = 1_000_000.0


@dataclass(frozen=True)
class SkyByteConfig:
    """Feature knobs mirroring the artifact's configuration file options."""

    #: ``device_triggered_ctx_swt`` in the artifact.
    device_triggered_ctx_swt: bool = True
    #: ``write_log_enable`` in the artifact.
    write_log_enable: bool = True
    #: ``promotion_enable`` in the artifact.
    promotion_enable: bool = True
    #: Page migration mechanism: "skybyte" (per-page counters, §III-C),
    #: "tpp" (sampling, §VI-H), or "none".
    migration_mechanism: str = "skybyte"
    #: Use the AstriFlash host-DRAM-as-cache organisation instead (§VI-H).
    astriflash: bool = False


@dataclass(frozen=True)
class QoSConfig:
    """Multi-tenant isolation knobs (see ``docs/QOS.md``).

    Everything a backend needs to attribute traffic to tenants travels
    inside the config -- partitions, thread ownership, weights -- so a
    trace replayed on any backend (local cell process, distributed service)
    reconstructs the exact same QoS behaviour from the embedded config
    alone, with no side-channel plan object.

    The default (``isolation="none"``, empty tuples) is serialisation-
    invisible: :meth:`SimConfig.to_dict` omits the ``qos`` key entirely
    so golden digests and cache keys of non-QoS runs are unchanged.
    """

    #: Mechanism: "none", "wfq" (weighted-fair flash queues + weighted
    #: host CFS), "priority" (strict-priority flash queues + host sched),
    #: "log-partition" (per-tenant write-log shares), or "cache-quota"
    #: (per-tenant data-cache quotas).
    isolation: str = "none"
    #: Per-tenant disjoint address partitions: ((base_page, pages), ...).
    partitions: tuple = ()
    #: Owning tenant index for each software thread.
    tenant_of_thread: tuple = ()
    #: Per-tenant weights (wfq / log-partition / cache-quota shares).
    weights: tuple = ()
    #: Per-tenant priorities (higher wins) for "priority" isolation.
    priorities: tuple = ()
    #: Read-latency SLO used by the violation-rate figure.
    slo_read_ns: float = 20_000.0

    @property
    def tenants(self) -> int:
        return len(self.partitions)

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "QoSConfig":
        """Rebuild from JSON-safe dict output (lists re-tupled)."""
        return QoSConfig(
            isolation=str(data.get("isolation", "none")),
            partitions=tuple(
                (int(base), int(pages))
                for base, pages in data.get("partitions", ())
            ),
            tenant_of_thread=tuple(
                int(t) for t in data.get("tenant_of_thread", ())
            ),
            weights=tuple(float(w) for w in data.get("weights", ())),
            priorities=tuple(int(p) for p in data.get("priorities", ())),
            slo_read_ns=float(data.get("slo_read_ns", 20_000.0)),
        )


@dataclass(frozen=True)
class DeviceModelConfig:
    """Flash device-model selection and deep-model knobs.

    ``kind="flat"`` (the default) keeps the horizon-estimate flash model
    every golden digest was pinned against.  ``kind="deep"`` switches the
    controllers to the explicit-geometry queueing model of
    :mod:`repro.ssd.geometry` / :class:`repro.ssd.flash.DeepFlashArray`:
    commands route to the die and plane a page physically lives on,
    read-priority program suspension is bounded, and GC campaigns pace
    their page moves through the command queues instead of batching at
    one instant (see ``docs/DEVICE_MODEL.md``).

    The default is serialisation-invisible: :meth:`SimConfig.to_dict`
    omits the ``device_model`` key entirely, so every pre-deep-model
    cache key and golden digest is byte-identical.
    """

    #: Flash model: "flat" (horizon estimates) or "deep" (queueing).
    kind: str = "flat"
    #: Reads suspend an in-flight program on their plane (deep model).
    read_priority: bool = True
    #: Consecutive reads that may suspend one program before it becomes
    #: non-preemptible (starvation bound); 0 = unbounded, which matches
    #: the flat model's suspend semantics exactly.
    max_read_bypass: int = 0
    #: Planes of one die execute array operations independently
    #: (multi-plane parallelism); False serialises a die's planes.
    plane_parallelism: bool = True
    #: Garbage collection runs as deferred background campaigns paced
    #: through the command queues; False keeps the synchronous
    #: channel-blocking campaigns of the flat model.
    background_gc: bool = True
    #: Pause between chained background-GC campaigns on one channel.
    gc_idle_ns: float = 50_000.0

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "DeviceModelConfig":
        return DeviceModelConfig(
            kind=str(data.get("kind", "flat")),
            read_priority=bool(data.get("read_priority", True)),
            max_read_bypass=int(data.get("max_read_bypass", 0)),
            plane_parallelism=bool(data.get("plane_parallelism", True)),
            background_gc=bool(data.get("background_gc", True)),
            gc_idle_ns=float(data.get("gc_idle_ns", 50_000.0)),
        )


@dataclass(frozen=True)
class TraceConfig:
    """Sim-time timeline tracing (Chrome trace-event / Perfetto JSON).

    Disabled by default and serialisation-invisible: a default block is
    omitted from :meth:`SimConfig.to_dict`, so cache keys and golden
    digests are unchanged unless tracing is switched on.  A traced run
    takes the same simulator path as an untraced one, so its stats are
    the same apart from this block and the engine counters.
    """

    #: Record a timeline for this run.
    enabled: bool = False
    #: Hard cap on recorded events; later events are counted as dropped.
    max_events: int = 200_000
    #: Emit per-request core->link->device spans (the bulkiest stream);
    #: False keeps only device-level lanes (flash, GC, write-log, ...).
    requests: bool = True

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "TraceConfig":
        return TraceConfig(
            enabled=bool(data.get("enabled", False)),
            max_events=int(data.get("max_events", 200_000)),
            requests=bool(data.get("requests", True)),
        )


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulation configuration."""

    cpu: CPUConfig = field(default_factory=CPUConfig)
    os: OSConfig = field(default_factory=OSConfig)
    cxl: CXLConfig = field(default_factory=CXLConfig)
    ssd: SSDConfig = field(default_factory=SSDConfig)
    skybyte: SkyByteConfig = field(default_factory=SkyByteConfig)
    #: Run everything out of host DRAM (the paper's DRAM-Only ideal).
    dram_only: bool = False
    #: Number of software threads (paper: 24 threads on 8 cores when the
    #: coordinated context switch is enabled, 8 otherwise).
    threads: int = 8
    #: Fraction of each trace replayed (metadata-only) to warm the SSD
    #: DRAM structures and page placement before the timed run, mirroring
    #: the paper's "use the traces to warm up the simulator, including the
    #: CPU caches, the host memory, the SSD DRAM cache, and the write
    #: log" (§VI-A).
    warmup_fraction: float = 1.0
    #: RNG seed threaded through every stochastic component.
    seed: int = 42
    #: Multi-tenant isolation knobs; the default is serialisation-invisible.
    qos: QoSConfig = field(default_factory=QoSConfig)
    #: Flash device-model selection; the default is serialisation-invisible.
    device_model: DeviceModelConfig = field(default_factory=DeviceModelConfig)
    #: Sim-time timeline tracing; the default is serialisation-invisible.
    trace: TraceConfig = field(default_factory=TraceConfig)

    def replace(self, **kwargs) -> "SimConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-safe) for caching and IPC.

        A default :class:`QoSConfig` is omitted so every pre-QoS digest
        (golden suites, result-cache keys) is byte-identical, and a
        default :class:`DeviceModelConfig` likewise.
        """
        data = dataclasses.asdict(self)
        if self.qos == QoSConfig():
            del data["qos"]
        if self.device_model == DeviceModelConfig():
            del data["device_model"]
        if self.trace == TraceConfig():
            del data["trace"]
        return data

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "SimConfig":
        """Rebuild a :class:`SimConfig` from :meth:`to_dict` output."""
        ssd_data = dict(data["ssd"])
        ssd_data["geometry"] = FlashGeometry(**ssd_data["geometry"])
        ssd_data["timing"] = FlashTiming(**ssd_data["timing"])
        return SimConfig(
            cpu=CPUConfig(**data["cpu"]),
            os=OSConfig(**data["os"]),
            cxl=CXLConfig(**data["cxl"]),
            ssd=SSDConfig(**ssd_data),
            skybyte=SkyByteConfig(**data["skybyte"]),
            dram_only=bool(data["dram_only"]),
            threads=int(data["threads"]),
            warmup_fraction=float(data["warmup_fraction"]),
            seed=int(data["seed"]),
            qos=QoSConfig.from_dict(data["qos"]) if data.get("qos")
            else QoSConfig(),
            device_model=DeviceModelConfig.from_dict(data["device_model"])
            if data.get("device_model") else DeviceModelConfig(),
            trace=TraceConfig.from_dict(data["trace"])
            if data.get("trace") else TraceConfig(),
        )

    def with_ssd(self, **kwargs) -> "SimConfig":
        return self.replace(ssd=dataclasses.replace(self.ssd, **kwargs))

    def with_os(self, **kwargs) -> "SimConfig":
        return self.replace(os=dataclasses.replace(self.os, **kwargs))

    def with_cpu(self, **kwargs) -> "SimConfig":
        return self.replace(cpu=dataclasses.replace(self.cpu, **kwargs))

    def with_skybyte(self, **kwargs) -> "SimConfig":
        return self.replace(skybyte=dataclasses.replace(self.skybyte, **kwargs))

    def with_device(self, **kwargs) -> "SimConfig":
        return self.replace(
            device_model=dataclasses.replace(self.device_model, **kwargs)
        )

    def with_trace(self, **kwargs) -> "SimConfig":
        return self.replace(trace=dataclasses.replace(self.trace, **kwargs))


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def paper_config() -> SimConfig:
    """The exact Table II configuration (128 GB flash, 512 MB SSD DRAM)."""
    return SimConfig()


def scaled_config(
    scale: int = 512,
    threads: int = 8,
    timing: str = "ULL",
    seed: int = 42,
) -> SimConfig:
    """A proportionally scaled-down configuration.

    ``scale`` divides every capacity of the paper's setup.  The default
    (512) yields: 256 MB flash, 1 MB SSD DRAM (128 KB write log + 896 KB
    data cache), 4 MB host promotion budget.  Workload footprints from
    :mod:`repro.workloads.suites` are scaled by the same factor, preserving
    the footprint:DRAM ratios of Table I.

    Args:
        scale: capacity division factor (power of two recommended).
        threads: number of software threads to simulate.
        timing: flash timing preset name from :data:`FLASH_TIMINGS`.
        seed: RNG seed.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    geometry = _scaled_geometry(scale)
    dram_bytes = max((512 * MB) // scale, 64 * KB)
    write_log_bytes = max(dram_bytes // 8, 8 * KB)
    ssd = SSDConfig(
        geometry=geometry,
        timing=FLASH_TIMINGS[timing],
        dram_bytes=dram_bytes,
        write_log_bytes=write_log_bytes,
    )
    cpu = CPUConfig(host_promote_budget_bytes=max((2 * GB) // scale, 64 * KB))
    return SimConfig(cpu=cpu, ssd=ssd, threads=threads, seed=seed)


def _scaled_geometry(scale: int) -> FlashGeometry:
    """Shrink the paper's flash geometry by ``scale``.

    Capacity is shed from blocks-per-plane and pages-per-block first so
    the device keeps most of its *parallelism* (channels, and dies behind
    each channel) -- it is the die count that determines how much flash
    work overlaps, and collapsing it would make the scaled device
    behave qualitatively unlike the paper's 1024-die drive.
    """
    base = FlashGeometry()
    remaining = scale
    blocks = base.blocks_per_plane
    while remaining > 1 and blocks > 16:
        blocks //= 2
        remaining //= 2
    pages = base.pages_per_block
    while remaining > 1 and pages > 32:
        pages //= 2
        remaining //= 2
    channels = base.channels
    while remaining > 1 and channels > 8:
        channels //= 2
        remaining //= 2
    chips = base.chips_per_channel
    while remaining > 1 and chips > 2:
        chips //= 2
        remaining //= 2
    dies = base.dies_per_chip
    while remaining > 1 and dies > 2:
        dies //= 2
        remaining //= 2
    return FlashGeometry(
        channels=channels,
        chips_per_channel=chips,
        dies_per_chip=dies,
        planes_per_die=base.planes_per_die,
        blocks_per_plane=blocks,
        pages_per_block=pages,
    )
