"""Flash-subsystem construction for both device models.

Both controller personalities (SkyByte, Base-CSSD) build their FTL,
flash array, and garbage collector here so the flat/deep selection in
``config.device_model`` (see :class:`repro.config.DeviceModelConfig`
and ``docs/DEVICE_MODEL.md``) lives in exactly one place.
"""

from __future__ import annotations

from typing import Tuple, Type

from repro.config import DEVICE_KINDS, SimConfig
from repro.sim.engine import Engine
from repro.sim.stats import DeviceStats, SimStats
from repro.ssd.flash import DeepFlashArray, FlashArray
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import BackgroundGarbageCollector, GarbageCollector


def collector_class(config: SimConfig) -> Type[GarbageCollector]:
    """The garbage collector ``config.device_model`` runs: the deferred
    paced one on the deep model with ``background_gc``, else the
    synchronous one."""
    device = config.device_model
    if device.kind == "deep" and device.background_gc:
        return BackgroundGarbageCollector
    return GarbageCollector


def build_flash_subsystem(
    config: SimConfig, engine: Engine, stats: SimStats
) -> Tuple[PageFTL, FlashArray, GarbageCollector]:
    """Return ``(ftl, flash, gc)`` for ``config.device_model``.

    ``kind="flat"`` builds the horizon-estimate model every golden
    digest is pinned against; ``kind="deep"`` builds the explicit
    geometry-routed queueing model, attaches :class:`DeviceStats` to
    ``stats`` (per-op GC and queue-depth accounting), and -- unless
    ``background_gc`` is off -- the deferred paced garbage collector.
    """
    ssd = config.ssd
    device = config.device_model
    ftl = PageFTL(ssd.geometry, seed=config.seed)
    if device.kind == "deep":
        if stats.device is None:
            stats.device = DeviceStats()
        flash: FlashArray = DeepFlashArray(
            ssd.geometry, ssd.timing, engine, stats, device=device
        )
    elif device.kind == "flat":
        flash = FlashArray(ssd.geometry, ssd.timing, engine, stats)
    else:
        raise ValueError(
            f"unknown device_model.kind {device.kind!r} (expected one of "
            f"{', '.join(DEVICE_KINDS)})"
        )
    collector = collector_class(config)
    if collector is BackgroundGarbageCollector:
        gc = collector(ssd, ftl, flash, engine, stats, idle_ns=device.gc_idle_ns)
    else:
        gc = collector(ssd, ftl, flash, engine, stats)
    return ftl, flash, gc


def arbiter_slots(config: SimConfig) -> int:
    """Per-channel parallel units the QoS admission arbiter assumes.

    The flat model overlaps one command per die; the deep model with
    plane parallelism overlaps one per plane, so pacing gets the extra
    slots instead of over-throttling tenants.
    """
    geo = config.ssd.geometry
    dies = geo.chips_per_channel * geo.dies_per_chip
    if config.device_model.kind == "deep" and config.device_model.plane_parallelism:
        return dies * geo.planes_per_die
    return dies
