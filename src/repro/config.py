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
import functools
import math
import typing
from dataclasses import dataclass, field
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

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

# ---------------------------------------------------------------------------
# Schema: each field's rule sits beside the field
# ---------------------------------------------------------------------------

#: Host thread scheduling policies (:mod:`repro.host.scheduler`).
T_POLICIES = ("RR", "RANDOM", "FAIRNESS")
#: Page migration mechanisms: per-page counters (§III-C), TPP sampling
#: (§VI-H), or none.
MIGRATION_MECHANISMS = ("skybyte", "tpp", "none")
#: Multi-tenant isolation mechanisms (``docs/QOS.md``), in figure order,
#: "none" first.
ISOLATIONS = ("none", "wfq", "priority", "log-partition", "cache-quota")
#: Flash device models (``docs/DEVICE_MODEL.md``).
DEVICE_KINDS = ("flat", "deep")


@dataclass(frozen=True)
class Rule:
    """What one config field may hold beyond its annotated type.

    Kept in the field's ``metadata["rule"]`` (see :func:`_ruled`).  A
    tuple field's rule applies to every number or string inside it.
    Every number in a config must also be finite: ``to_dict`` output is
    strict JSON.  :meth:`SimConfig.validate` checks the rules; decoding
    does not.
    """

    #: Inclusive lower bound.
    minimum: Optional[float] = None
    #: Exclusive lower bound.
    above: Optional[float] = None
    #: Inclusive upper bound.
    maximum: Optional[float] = None
    #: The only values a string field may take.
    choices: Tuple[str, ...] = ()

    def check(self, value: object, path: str) -> None:
        """Raise ``ValueError`` naming ``path`` unless ``value`` obeys."""
        if self.choices and value not in self.choices:
            raise ValueError(f"{path} must be one of "
                             f"{', '.join(self.choices)}, not {value!r}")
        if self.minimum is not None and value < self.minimum:
            raise ValueError(f"{path} must be at least {self.minimum}, "
                             f"not {value!r}")
        if self.above is not None and value <= self.above:
            raise ValueError(f"{path} must be above {self.above}, "
                             f"not {value!r}")
        if self.maximum is not None and value > self.maximum:
            raise ValueError(f"{path} must be at most {self.maximum}, "
                             f"not {value!r}")


def _ruled(default: object = dataclasses.MISSING, **rule: object):
    """A dataclass field carrying its :class:`Rule`."""
    return field(default=default, metadata={"rule": Rule(**rule)})


@dataclass(frozen=True)
class FlashTiming:
    """NAND flash operation latencies (paper Table IV)."""

    name: str
    #: An array operation takes time.
    read_ns: float = _ruled(above=0)
    program_ns: float = _ruled(above=0)
    erase_ns: float = _ruled(above=0)


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

    #: Every level of the hierarchy holds at least one of the next.
    channels: int = _ruled(16, minimum=1)
    chips_per_channel: int = _ruled(8, minimum=1)
    dies_per_chip: int = _ruled(8, minimum=1)
    planes_per_die: int = _ruled(1, minimum=1)
    blocks_per_plane: int = _ruled(128, minimum=1)
    pages_per_block: int = _ruled(256, minimum=1)
    #: A page holds at least one cacheline.
    page_size: int = _ruled(PAGE_SIZE, minimum=CACHELINE_SIZE)

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
    dram_bytes: int = _ruled(512 * MB, minimum=0)
    #: Cacheline-granular write log capacity (SkyByte).  64 MB default,
    #: i.e. 1:7 against the 448 MB data cache.  It holds at least one
    #: cacheline and is carved out of ``dram_bytes``.
    write_log_bytes: int = _ruled(64 * MB, minimum=CACHELINE_SIZE)
    #: Page-granular data cache associativity.
    cache_ways: int = _ruled(16, minimum=1)
    #: SSD LPDDR4 DRAM access latency for a cacheline.
    dram_access_ns: float = _ruled(95.0, minimum=0)
    #: Write-log hash index lookup latency (measured on the FPGA SoC, §V).
    log_index_ns: float = _ruled(72.0, minimum=0)
    #: Data-cache index lookup latency (measured on the FPGA SoC, §V).
    cache_index_ns: float = _ruled(49.0, minimum=0)
    #: GC trigger threshold: fraction of pages used before GC starts.
    gc_threshold: float = _ruled(0.80, minimum=0, maximum=1)
    #: Fraction of a channel's blocks reclaimed per GC campaign.  Small
    #: by design: a campaign should last the "few milliseconds" of §II-C.
    #: (Table II's "# of Blocks to Erase: 19660" is the *cumulative* pool
    #: target of the paper's preconditioning, not a per-campaign count.)
    #: A campaign reclaims some blocks, at most all of them.
    gc_free_fraction: float = _ruled(0.008, above=0, maximum=1)
    #: Over-provisioning: flash capacity beyond the advertised logical
    #: space, as a fraction of it.
    overprovision: float = _ruled(0.25, minimum=0)
    #: Base-CSSD sequential next-page prefetch depth (0 disables).
    prefetch_depth: int = _ruled(1, minimum=0)
    #: Base-CSSD periodic dirty-page persistence interval.  Conventional
    #: CXL-SSD caches keep block-device durability semantics, so dirty
    #: pages are written back after at most this long even while hot
    #: (prior designs flush opportunistically for persistence).  SkyByte
    #: instead holds dirty lines in its battery-backed write log (§IV)
    #: until compaction -- this asymmetry is the "larger coalescing
    #: window" of §III-B.  Set to 0 to disable.
    dirty_flush_interval_ns: float = _ruled(100_000.0, minimum=0)
    #: Page access count above which a page becomes a migration candidate.
    promotion_threshold: int = _ruled(24, minimum=0)

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
    protocol_ns: float = _ruled(40.0, minimum=0)
    #: Link bandwidth in bytes/ns (16 GB/s = 16 B/ns).
    bandwidth_bytes_per_ns: float = _ruled(16.0, above=0)

    def transfer_ns(self, nbytes: int) -> float:
        """Serialisation delay for ``nbytes`` on the link."""
        return nbytes / self.bandwidth_bytes_per_ns


@dataclass(frozen=True)
class CPUConfig:
    """Host CPU parameters (Table II, upper half)."""

    cores: int = _ruled(8, minimum=1)
    freq_ghz: float = _ruled(4.0, above=0)
    rob_entries: int = _ruled(256, minimum=1)
    #: Peak IPC used by the interval model between off-chip events.
    peak_ipc: float = _ruled(3.0, above=0)
    l1_mshrs: int = _ruled(8, minimum=1)
    l2_mshrs: int = _ruled(128, minimum=1)
    l3_mshrs: int = _ruled(1024, minimum=1)
    #: Host DDR5 load-to-use latency.
    dram_latency_ns: float = _ruled(70.0, minimum=0)
    #: Aggregate host DRAM bandwidth in bytes/ns (8 channels x 32 GB/s).
    dram_bandwidth_bytes_per_ns: float = _ruled(256.0, above=0)
    #: Maximum total size of promoted pages in host DRAM (Table II: 2 GB).
    host_promote_budget_bytes: int = _ruled(2 * GB, minimum=0)

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz


@dataclass(frozen=True)
class OSConfig:
    """Host OS scheduling parameters (§III-A)."""

    #: Measured context switch overhead (Table II: 2 us).
    context_switch_ns: float = _ruled(2 * US, minimum=0)
    #: Context switch trigger threshold for Algorithm 1 (Table II: 2 us).
    cs_threshold_ns: float = _ruled(2 * US, minimum=0)
    #: Thread scheduling policy: "RR", "RANDOM", or "FAIRNESS" (CFS).
    t_policy: str = _ruled("FAIRNESS", choices=T_POLICIES)
    #: Per-core cost of the TLB shootdown IPI after a page migration.
    tlb_shootdown_ns: float = _ruled(1_000.0, minimum=0)
    #: Demotion hysteresis: a promoted page must have been idle this long
    #: before it may be evicted to make room (prevents promotion churn).
    demote_min_idle_ns: float = _ruled(200_000.0, minimum=0)
    #: Fixed OS-side cost of handling one migration interrupt (MSI-X,
    #: allocation, page copy issue).
    migration_handling_ns: float = _ruled(3_000.0, minimum=0)
    #: User-level (AstriFlash-style) thread switch overhead.
    user_level_switch_ns: float = _ruled(500.0, minimum=0)
    #: Scheduling quantum: a thread holding a core this long is preempted
    #: if other threads wait (keeps >cores thread counts fair even without
    #: device-triggered switches).  A slice of no time is no quantum.
    quantum_ns: float = _ruled(1_000_000.0, above=0)


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
    migration_mechanism: str = _ruled("skybyte", choices=MIGRATION_MECHANISMS)
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
    isolation: str = _ruled("none", choices=ISOLATIONS)
    #: Per-tenant disjoint address partitions: ((base_page, pages), ...).
    partitions: Tuple[Tuple[int, int], ...] = _ruled((), minimum=0)
    #: Owning tenant index for each software thread.
    tenant_of_thread: Tuple[int, ...] = _ruled((), minimum=0)
    #: Per-tenant weights (wfq / log-partition / cache-quota shares);
    #: empty means 1.0 each.  A share is positive.
    weights: Tuple[float, ...] = _ruled((), above=0)
    #: Per-tenant priorities (higher wins) for "priority" isolation;
    #: empty means 0 each.
    priorities: Tuple[int, ...] = ()
    #: Read-latency SLO used by the violation-rate figure.
    slo_read_ns: float = _ruled(20_000.0, above=0)

    @property
    def tenants(self) -> int:
        return len(self.partitions)


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
    kind: str = _ruled("flat", choices=DEVICE_KINDS)
    #: Reads suspend an in-flight program on their plane (deep model).
    read_priority: bool = True
    #: Consecutive reads that may suspend one program before it becomes
    #: non-preemptible (starvation bound); 0 = unbounded, which matches
    #: the flat model's suspend semantics exactly.
    max_read_bypass: int = _ruled(0, minimum=0)
    #: Planes of one die execute array operations independently
    #: (multi-plane parallelism); False serialises a die's planes.
    plane_parallelism: bool = True
    #: Garbage collection runs as deferred background campaigns paced
    #: through the command queues; False keeps the synchronous
    #: channel-blocking campaigns of the flat model.
    background_gc: bool = True
    #: Pause between chained background-GC campaigns on one channel.
    gc_idle_ns: float = _ruled(50_000.0, minimum=0)


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
    max_events: int = _ruled(200_000, minimum=0)
    #: Emit per-request core->link->device spans (the bulkiest stream);
    #: False keeps only device-level lanes (flash, GC, write-log, ...).
    requests: bool = True


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
    threads: int = _ruled(8, minimum=1)
    #: Fraction of each trace replayed (metadata-only) to warm the SSD
    #: DRAM structures and page placement before the timed run, mirroring
    #: the paper's "use the traces to warm up the simulator, including the
    #: CPU caches, the host memory, the SSD DRAM cache, and the write
    #: log" (§VI-A).
    warmup_fraction: float = _ruled(1.0, minimum=0, maximum=1)
    #: RNG seed threaded through every stochastic component; seeds are
    #: non-negative, as the CLI and job specs have always required.
    seed: int = _ruled(42, minimum=0)
    #: Multi-tenant isolation knobs; the default is serialisation-invisible.
    qos: QoSConfig = field(default_factory=QoSConfig)
    #: Flash device-model selection; the default is serialisation-invisible.
    device_model: DeviceModelConfig = field(default_factory=DeviceModelConfig)
    #: Sim-time timeline tracing; the default is serialisation-invisible.
    trace: TraceConfig = field(default_factory=TraceConfig)

    def replace(self, **changes: object) -> "SimConfig":
        """Return a copy with fields replaced.

        A mapping given for a section is laid over that section, and
        likewise for nested sections: ``config.replace(ssd={"dram_bytes":
        MB, "geometry": {"channels": 4}})`` keeps every other SSD field.
        An unknown key at any depth is a ``ValueError`` naming its dotted
        path.  Nothing is range-checked here; see :meth:`validate`.
        """
        return _merge(SimConfig, self, changes, "")

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
    def from_dict(data: Mapping[str, object]) -> "SimConfig":
        """Rebuild a :class:`SimConfig` from :meth:`to_dict` output.

        Lists become tuples again and a missing key takes its default;
        an unknown key at any depth is a ``ValueError`` naming its dotted
        path.  Leaves keep their JSON values unchecked (a cached result
        is not validated twice); :meth:`validate` checks them.
        """
        return _merge(SimConfig, None, data, "")

    def gc_spare_blocks(self) -> int:
        """Spare flash blocks per channel garbage collection needs: the
        free-block level at which this config's collector starts a
        campaign (the synchronous collector's reserve, or the background
        collector's watermark), and at least the FTL's host-write floor.
        With fewer, the device sits at its GC trigger from the start and
        a campaign may find too little dead data to free a block."""
        # Imported here: the ssd package imports this module.
        from repro.ssd.factory import collector_class
        from repro.ssd.ftl import PageFTL

        return max(PageFTL.gc_reserved_blocks,
                   collector_class(self).start_level(self.ssd))

    def overprovision_floor(self) -> float:
        """The least ``ssd.overprovision`` that leaves
        :meth:`gc_spare_blocks` spare blocks per channel (``inf`` when
        the geometry cannot hold them)."""
        geometry = self.ssd.geometry
        needed = (self.gc_spare_blocks() * geometry.channels
                  * geometry.pages_per_block)
        if needed >= geometry.total_pages:
            return math.inf
        return needed / (geometry.total_pages - needed)

    def validate(self) -> "SimConfig":
        """Check every field's :class:`Rule` and the rules that tie
        fields together; return ``self``.

        Raises ``ValueError`` whose message starts with the offending
        field's dotted path (``ssd.geometry.pages_per_block``).
        """
        _check_section(self, "")
        ssd = self.ssd
        if ssd.write_log_bytes > ssd.dram_bytes:
            raise ValueError(
                f"ssd.write_log_bytes must fit inside ssd.dram_bytes "
                f"({ssd.dram_bytes}), not {ssd.write_log_bytes}")
        if ssd.logical_pages < 1:
            raise ValueError(
                f"ssd.overprovision must leave at least one logical page "
                f"of {ssd.geometry.total_pages} flash page(s), not "
                f"{ssd.overprovision!r}")
        floor = self.overprovision_floor()
        if ssd.overprovision < floor:
            raise ValueError(
                f"ssd.overprovision must leave the {self.gc_spare_blocks()} "
                f"spare block(s) per channel garbage collection needs, so "
                f"be at least {floor!r}, not {ssd.overprovision!r}")
        qos = self.qos
        tenants = qos.tenants
        for name in ("weights", "priorities"):
            given = len(getattr(qos, name))
            if given not in (0, tenants):
                raise ValueError(
                    f"qos.{name} must be empty or hold one entry per "
                    f"tenant ({tenants}), not {given}")
        for tid, tenant in enumerate(qos.tenant_of_thread):
            if tenant >= tenants:
                raise ValueError(
                    f"qos.tenant_of_thread[{tid}] must name one of the "
                    f"{tenants} tenant(s), not {tenant}")
        end = 0
        for base, pages in sorted(qos.partitions):
            if base < end:
                raise ValueError(
                    f"qos.partitions must not overlap; two do at page "
                    f"{base}")
            end = base + pages
        return self


# ---------------------------------------------------------------------------
# One decoder and one checker, both driven by the schema
# ---------------------------------------------------------------------------


class FieldSpec(NamedTuple):
    """One field of a config section, as the schema sees it."""

    name: str
    #: Resolved annotation: a scalar type, a ``Tuple[...]`` or a section.
    type: object
    rule: Optional[Rule]
    #: The nested section's class, for a dataclass-valued field.
    section: Optional[type]


class Schema(NamedTuple):
    """A section's fields, derived once from its dataclass."""

    fields: Tuple[FieldSpec, ...]
    by_name: Dict[str, FieldSpec]
    #: The field names as a set, for the decoder's unknown-key check.
    names: frozenset
    #: Section-valued field names -> their classes.
    sections: Dict[str, type]
    #: Tuple-valued field names (JSON turns them into lists).
    tuples: Tuple[str, ...]
    #: Field name -> default value; one shared instance per default
    #: section, which is safe because every section is frozen.
    defaults: Dict[str, object]


@functools.lru_cache(maxsize=None)
def schema(cls: type) -> Schema:
    """The :class:`Schema` of a config dataclass."""
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__}: config sections are built "
                        f"without __init__ and may not have __post_init__")
    hints = typing.get_type_hints(cls)
    fields = tuple(
        FieldSpec(f.name, hints[f.name], f.metadata.get("rule"),
                  hints[f.name] if dataclasses.is_dataclass(hints[f.name])
                  else None)
        for f in dataclasses.fields(cls))
    return Schema(
        fields=fields,
        by_name={f.name: f for f in fields},
        names=frozenset(f.name for f in fields),
        sections={f.name: f.section for f in fields if f.section},
        tuples=tuple(f.name for f in fields
                     if typing.get_origin(f.type) is tuple),
        defaults={
            f.name: f.default if f.default is not dataclasses.MISSING
            else f.default_factory()
            for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING},
    )


def rule_of(path: str) -> Rule:
    """The :class:`Rule` of the :class:`SimConfig` field at a dotted path."""
    cls = SimConfig
    *sections, leaf = path.split(".")
    for name in sections:
        cls = schema(cls).by_name[name].section
    return schema(cls).by_name[leaf].rule


def _retuple(items: list) -> tuple:
    return tuple(_retuple(v) if isinstance(v, list) else v for v in items)


def _merge(cls: type, base: object, data: Mapping[str, object],
           path: str) -> object:
    """``data`` laid over ``base`` (an instance of ``cls``; ``None``
    means ``cls``'s defaults): the one decoder behind
    :meth:`SimConfig.from_dict` and :meth:`SimConfig.replace`.

    The instance's fields are filled in directly, not through the
    dataclass ``__init__`` (which sets each field of a frozen class
    through ``object.__setattr__``): this runs for every cached result
    read back, which is what a warm sweep does."""
    layout = schema(cls)
    if not layout.names.issuperset(data):
        unknown = min(data.keys() - layout.names)
        raise ValueError(
            f"{path}{unknown} is not a config field (expected one of "
            f"{', '.join(layout.by_name)})")
    values = {**(layout.defaults if base is None else vars(base)), **data}
    if len(values) < len(layout.names):
        missing = min(layout.names - values.keys())
        raise ValueError(f"{path}{missing} is missing")
    for name, section in layout.sections.items():
        value = data.get(name)
        if isinstance(value, dict):
            values[name] = _merge(
                section, None if base is None else getattr(base, name),
                value, f"{path}{name}.")
    for name in layout.tuples:
        value = data.get(name)
        if isinstance(value, list):
            values[name] = _retuple(value)
    instance = object.__new__(cls)
    vars(instance).update(values)
    return instance


_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string"}


def check_field(value: object, kind: object, rule: Optional[Rule],
                path: str) -> None:
    """Raise ``ValueError`` naming ``path`` unless ``value`` is of the
    annotated ``kind`` (a float field takes any finite real) and obeys
    ``rule``, element by element for a ``Tuple[...]``."""
    if typing.get_origin(kind) is tuple:
        args = typing.get_args(kind)
        if not isinstance(value, tuple):
            raise ValueError(f"{path} must be a list, not {value!r}")
        kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(kinds) != len(value):
            raise ValueError(f"{path} must hold {len(kinds)} item(s), "
                             f"not {value!r}")
        for i, (item, item_kind) in enumerate(zip(value, kinds)):
            check_field(item, item_kind, rule, f"{path}[{i}]")
        return
    if kind is float:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ValueError(f"{path} must be {_KINDS[kind]}, not {value!r}")
    if rule is not None:
        rule.check(value, path)


def _check_section(section: object, path: str) -> None:
    for spec in schema(type(section)).fields:
        value = getattr(section, spec.name)
        where = path + spec.name
        if spec.section is None:
            check_field(value, spec.type, spec.rule, where)
        elif isinstance(value, spec.section):
            _check_section(value, where + ".")
        else:
            raise ValueError(f"{where} must be a {spec.section.__name__}, "
                             f"not {value!r}")


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
