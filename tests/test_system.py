"""Integration tests: full-system runs for every design variant."""

import gc
import hashlib
import json
import weakref

import pytest

from repro.experiments.runner import build_config, capture_workload, run_workload
from repro.sim.system import System
from repro.variants import VARIANTS

RECORDS = 600


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_variant_runs_to_completion(variant):
    r = run_workload("bc", variant, records_per_thread=RECORDS)
    assert r.stats.execution_ns > 0
    assert r.stats.instructions > 0
    assert r.stats.throughput_ipns > 0


def test_determinism_same_seed():
    a = run_workload("tpcc", "SkyByte-Full", records_per_thread=RECORDS, seed=5)
    b = run_workload("tpcc", "SkyByte-Full", records_per_thread=RECORDS, seed=5)
    assert a.stats.execution_ns == b.stats.execution_ns
    assert a.stats.flash_page_writes == b.stats.flash_page_writes
    assert a.stats.context_switches == b.stats.context_switches


def test_seed_changes_outcome():
    a = run_workload("tpcc", "SkyByte-Full", records_per_thread=RECORDS, seed=5)
    b = run_workload("tpcc", "SkyByte-Full", records_per_thread=RECORDS, seed=6)
    assert a.stats.execution_ns != b.stats.execution_ns


def test_promotion_serves_requests_from_host():
    r = run_workload("ycsb", "SkyByte-P", records_per_thread=1500)
    assert r.stats.pages_promoted > 0
    assert r.stats.request_breakdown()["H-R/W"] > 0


def test_write_log_absorbs_writes():
    r = run_workload("tpcc", "SkyByte-W", records_per_thread=1500)
    assert r.stats.log_appends > 0
    assert r.stats.log_compactions >= 1


def test_full_uses_all_three_mechanisms():
    r = run_workload("tpcc", "SkyByte-Full", records_per_thread=1500)
    assert r.stats.pages_promoted > 0
    assert r.stats.log_appends > 0
    assert r.stats.context_switches > 0


def test_dram_only_beats_every_cxl_design():
    dram = run_workload("bc", "DRAM-Only", records_per_thread=RECORDS)
    for variant in ("Base-CSSD", "SkyByte-Full"):
        other = run_workload("bc", variant, records_per_thread=RECORDS)
        assert dram.stats.throughput_ipns > other.stats.throughput_ipns


def test_thread_count_rule_applied():
    full = run_workload("bc", "SkyByte-Full", records_per_thread=200)
    base = run_workload("bc", "Base-CSSD", records_per_thread=200)
    assert full.threads == 24
    assert base.threads == 8


def test_request_classes_partition_accesses():
    r = run_workload("srad", "SkyByte-Full", records_per_thread=1000)
    assert sum(r.stats.request_breakdown().values()) == pytest.approx(1.0)


def test_warmup_fraction_zero_starts_cold():
    cold = run_workload(
        "bc", "Base-CSSD", records_per_thread=800, warmup_fraction=0.0
    )
    warm = run_workload(
        "bc", "Base-CSSD", records_per_thread=800, warmup_fraction=1.0
    )
    # A cold cache suffers more read misses.
    assert cold.stats.cache_misses > warm.stats.cache_misses


def test_build_config_overrides():
    cfg = build_config(
        cs_threshold_ns=9000.0,
        t_policy="RR",
        dram_bytes=512 * 1024,
        host_budget_bytes=2 * 1024 * 1024,
    )
    assert cfg.os.cs_threshold_ns == 9000.0
    assert cfg.os.t_policy == "RR"
    assert cfg.ssd.dram_bytes == 512 * 1024
    assert cfg.ssd.write_log_bytes == 64 * 1024  # keeps the 1:8 split
    assert cfg.cpu.host_promote_budget_bytes == 2 * 1024 * 1024


def test_astriflash_serves_from_host_cache():
    r = run_workload("ycsb", "AstriFlash-CXL", records_per_thread=1000)
    assert r.stats.request_breakdown()["H-R/W"] > 0.3
    assert r.stats.context_switches > 0  # user-level switches on misses


def test_tpp_promotes_fewer_or_equal_precision():
    """TPP's sampling should not out-promote SkyByte's exact counters for
    the same budget (it misses accesses)."""
    ct = run_workload("ycsb", "SkyByte-CT", records_per_thread=1200)
    cp = run_workload("ycsb", "SkyByte-CP", records_per_thread=1200)
    assert ct.stats.pages_promoted <= cp.stats.pages_promoted * 1.5


def test_drain_accounts_buffered_writes():
    """After a run, no dirty state may be left unaccounted in any design."""
    for variant in ("Base-CSSD", "SkyByte-W"):
        r = run_workload("tpcc", variant, records_per_thread=800)
        assert r.stats.flash_page_writes > 0


def test_stats_gc_triggers_on_write_heavy_long_run():
    r = run_workload("dlrm", "Base-CSSD", records_per_thread=6000)
    assert r.stats.gc_invocations >= 1


@pytest.mark.parametrize("device_model", ["flat", "deep"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_finished_run_is_freed_without_the_cycle_collector(
    monkeypatch, variant, device_model
):
    """run_workload closes its System: the system, its controller and FTL
    are freed by reference counting alone, so a sweep's dead runs never
    wait for a full collection."""
    refs = []
    close = System.close

    def spy(system):
        close(system)
        parts = [system, system.controller,
                 getattr(system.controller, "ftl", None)]
        refs.extend(weakref.ref(p) for p in parts if p is not None)

    monkeypatch.setattr(System, "close", spy)
    gc.collect()
    gc.disable()
    try:
        run_workload("bc", variant, records_per_thread=200, seed=3,
                     device_model=device_model)
        assert refs and all(ref() is None for ref in refs)
    finally:
        gc.enable()


# -- one hot path: tracing and capture ride on the window loop -------------


def _canonical(result, drop_trace=False):
    data = result.to_dict()
    if drop_trace:
        # Kept only on traced runs: the trace block and engine counters.
        data["config"].pop("trace")
        data["stats"].pop("engine")
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("model", ["flat", "deep"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_timeline_traced_run_equals_untraced_twin(tmp_path, variant, model):
    kwargs = dict(records_per_thread=120, seed=42, device_model=model)
    timeline = tmp_path / "timeline.json"
    traced = run_workload("tab1-ycsb", variant, timeline=str(timeline),
                          **kwargs)
    untraced = run_workload("tab1-ycsb", variant, **kwargs)
    assert traced.stats.engine is not None
    assert _canonical(traced, drop_trace=True) == _canonical(untraced)
    spans = {e["name"] for e in json.loads(timeline.read_text())["traceEvents"]
             if e.get("ph") == "X"}
    if variant not in ("DRAM-Only", "AstriFlash-CXL"):
        # Per-request spans come from the window loop, on core lanes.
        assert {"cxl.down", "device", "cxl.up"} <= spans
        assert spans & {"mem.read", "mem.write"}


#: SHA-256 of the ``.sbt`` bytes ``capture_workload("tab1-ycsb",
#: "SkyByte-Full", records_per_thread=300, seed=42)`` wrote when the
#: per-record window loop still fed the capture tap.
CAPTURE_SHA256 = (
    "4b7941b826d4d73aaa97c00722869507f5959c5b19f8e03f8c765bb793afff2d"
)


def test_capture_of_switching_variant_is_frozen_and_replays(tmp_path):
    """Context switches squash and rewind windows; the tap on the window
    plan still writes every consumed record once, in order."""
    path = tmp_path / "ycsb.sbt"
    captured = capture_workload("tab1-ycsb", "SkyByte-Full", str(path),
                                records_per_thread=300, seed=42)
    assert captured.stats.context_switches > 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CAPTURE_SHA256
    replayed = run_workload("tab1-ycsb", "SkyByte-Full", trace=str(path))
    assert replayed.stats.to_dict() == captured.stats.to_dict()
