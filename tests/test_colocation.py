"""Tests for multi-tenant colocation: partitioning, attribution, and
bit-exact replay of colocation traces through the standard pipeline."""

import json

import pytest

from repro.config import PAGE_SIZE
from repro.experiments.colocation import (
    colocation_payload,
    run_colocation,
    solo_cells,
)
from repro.experiments.backends import LocalProcessBackend
from repro.experiments.orchestrator import ResultCache, SweepJob, run_sweep
from repro.experiments.runner import build_config, run_workload
from repro.figures.spec import shape_figure
from repro.scenarios.colocate import (
    Tenant,
    build_colocation,
    tenants_from_names,
)
from repro.scenarios.tracefile import write_tracefile

RECORDS = 80
TENANTS = [
    Tenant(name="web", scenario="web-tier", threads=2, seed=7),
    Tenant(name="ingest", scenario="log-ingest", threads=2, seed=8),
]


def canonical_stats(stats) -> str:
    return json.dumps(stats.to_dict(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Plan building
# ---------------------------------------------------------------------------


def test_partitions_are_disjoint_and_cover_traces():
    plan = build_colocation(TENANTS, scale=512, records_per_thread=RECORDS)
    assert plan.tenant_of_thread == [0, 0, 1, 1]
    (base0, pages0), (base1, pages1) = plan.partitions
    assert base0 == 0 and base1 == pages0
    assert plan.total_pages == pages0 + pages1
    for tid, trace in enumerate(plan.traces):
        base, pages = plan.partitions[plan.tenant_of_thread[tid]]
        for _gap, _w, address in trace:
            assert base * PAGE_SIZE <= address < (base + pages) * PAGE_SIZE


def test_tenant_mix_can_include_table1_workloads():
    tenants = [Tenant(name="db", scenario="ycsb", threads=1, seed=1),
               Tenant(name="scan", scenario="analytics-scan", threads=1,
                      seed=2)]
    plan = build_colocation(tenants, scale=512, records_per_thread=40)
    assert plan.scenarios[0].name == "tab1-ycsb"
    assert len(plan.traces) == 2


def test_tenants_from_names_disambiguates_duplicates():
    tenants = tenants_from_names(["web-tier", "web-tier"], threads=1, seed=5)
    assert [t.name for t in tenants] == ["web-tier", "web-tier-2"]
    assert tenants[0].seed != tenants[1].seed


def test_empty_tenant_list_refused():
    with pytest.raises(ValueError, match="at least one tenant"):
        build_colocation([], scale=512, records_per_thread=10)


# ---------------------------------------------------------------------------
# Per-tenant attribution
# ---------------------------------------------------------------------------


def test_tenant_request_counts_sum_to_global():
    """With no context switching (nothing squashed/reversed), the
    per-tenant host-side view must account for every global request."""
    system = run_colocation(TENANTS, variant="Base-CSSD",
                            records_per_thread=RECORDS)
    summed = {key: 0 for key in system.stats.request_counts}
    for stats in system.tenant_stats:
        for key, count in stats.request_counts.items():
            summed[key] += count
    assert summed == system.stats.request_counts
    total_amat = sum(s.amat_accesses for s in system.tenant_stats)
    assert total_amat == system.stats.amat_accesses


def test_tenant_makespans_bounded_by_device():
    system = run_colocation(TENANTS, variant="Base-CSSD",
                            records_per_thread=RECORDS)
    assert all(0.0 < end <= system.stats.end_ns
               for end in system.tenant_end_ns)
    for stats in system.tenant_stats:
        assert stats.instructions > 0
        assert stats.execution_ns > 0


# ---------------------------------------------------------------------------
# The driver + figure
# ---------------------------------------------------------------------------


def test_colocation_study_shape_and_charts():
    solo = run_sweep(solo_cells(TENANTS, RECORDS))
    data = colocation_payload(TENANTS, RECORDS, solo)
    assert set(data["tenants"]) == {"web", "ingest"}
    for row in data["tenants"].values():
        assert row["slowdown"] > 0
        assert abs(sum(row["requests"].values()) - 1.0) < 1e-9
    charts = shape_figure("colocation", data)
    assert [c.kind for c in charts] == ["bar", "stacked", "stacked"]
    assert charts[0].categories == ("web", "ingest")


def test_colocation_solo_baselines_go_through_the_cache(tmp_path):
    run_sweep(solo_cells(TENANTS, RECORDS), cache=ResultCache(tmp_path))
    cached = [p for p in tmp_path.glob("*.json") if p.name != "index.json"]
    assert len(cached) == len(TENANTS)  # one solo cell per tenant


# ---------------------------------------------------------------------------
# Colocation traces replay bit-exactly as ordinary sweep cells
# ---------------------------------------------------------------------------


def _write_colocation_trace(path, plan, seed=42):
    config = build_config(scale=plan.scale, seed=seed,
                          threads=len(plan.traces))
    meta = {"kind": "colocation", "workload": "coloc-test", "seed": seed,
            "config": config.to_dict()}
    meta.update(plan.meta())
    write_tracefile(path, plan.traces, meta)


def test_colocation_trace_replay_matches_direct_run(tmp_path):
    """A colocation tracefile replayed through the standard System (as a
    sweep cell) produces stats byte-identical to the ColocatedSystem it
    was planned for -- the observer layer must not perturb simulation."""
    plan = build_colocation(TENANTS, scale=512, records_per_thread=RECORDS)
    path = tmp_path / "coloc.sbt"
    _write_colocation_trace(path, plan)

    direct = run_colocation(TENANTS, variant="SkyByte-Full",
                            records_per_thread=RECORDS)
    replayed = run_workload("coloc-test", "SkyByte-Full", trace=str(path))
    assert canonical_stats(replayed.stats) == canonical_stats(direct.stats)


def test_colocation_trace_replay_identical_across_backends(tmp_path):
    plan = build_colocation(TENANTS, scale=512, records_per_thread=RECORDS)
    path = tmp_path / "coloc.sbt"
    _write_colocation_trace(path, plan)
    job = SweepJob.make("coloc-test", "SkyByte-Full", trace=str(path))
    local = run_sweep([job])[0]
    with LocalProcessBackend(2) as backend:
        child = run_sweep([job], backend=backend)[0]
    assert canonical_stats(local.stats) == canonical_stats(child.stats)


def test_capture_replays_bit_exactly_on_all_backends(tmp_path, spawn_worker):
    """The acceptance pin: a captured trace replays bit-exactly in
    process, in a local cell child, and on the distributed (real worker
    subprocess) backend."""
    from repro.experiments.backends import DistributedBackend
    from repro.experiments.runner import capture_workload

    path = tmp_path / "cap.sbt"
    captured = capture_workload("bc", "SkyByte-Full", str(path),
                                records_per_thread=60, seed=42)
    job = SweepJob.make("bc", "SkyByte-Full", trace=str(path))

    local = run_sweep([job])[0]
    with LocalProcessBackend(2) as backend:
        child = run_sweep([job], backend=backend)[0]
    with DistributedBackend(listen="127.0.0.1:0") as backend:
        host, port = backend.address
        proc = spawn_worker("--connect", f"{host}:{port}", "--no-cache")
        distributed = run_sweep([job], backend=backend)[0]
    assert proc.wait(timeout=30) == 0

    reference = canonical_stats(captured.stats)
    assert canonical_stats(local.stats) == reference
    assert canonical_stats(child.stats) == reference
    assert canonical_stats(distributed.stats) == reference


# ---------------------------------------------------------------------------
# Tenant QoS (docs/QOS.md)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "isolation", ["none", "wfq", "priority", "log-partition", "cache-quota"]
)
def test_single_tenant_isolation_is_identity(isolation):
    """Differential pin: with one tenant there is nothing to isolate, so
    every mechanism must degenerate to the unprotected path bit for bit
    -- the colocated run's stats match a plain ``run_workload`` of the
    same scenario/threads/seed byte-identically."""
    tenant = [Tenant(name="web", scenario="web-tier", threads=2, seed=7)]
    solo = run_workload("web-tier", "SkyByte-Full",
                        records_per_thread=RECORDS, threads=2, seed=7)
    system = run_colocation(tenant, variant="SkyByte-Full",
                            records_per_thread=RECORDS, seed=7,
                            isolation=isolation)
    assert canonical_stats(system.stats) == canonical_stats(solo.stats)


def test_multi_tenant_qos_config_is_embedded():
    from repro.experiments.qos import mix_tenants, tenant_weights

    tenants = mix_tenants(4, records_per_thread=20)
    system = run_colocation(tenants, records_per_thread=20, isolation="wfq",
                            weights=tenant_weights(tenants))
    qos = system.config.qos
    assert qos.isolation == "wfq"
    assert len(qos.partitions) == 4
    assert qos.tenant_of_thread == (0, 1, 2, 3)
    assert "qos" in system.config.to_dict()  # replayable from the config


@pytest.mark.parametrize("isolation", ["wfq", "log-partition", "cache-quota"])
def test_hundred_tenant_sweep_completes(isolation):
    """The scale pin: each mechanism family handles hundreds of tenants
    (one thread each) with every tenant attributed and accounted."""
    from repro.experiments.qos import (
        mix_tenants,
        tenant_priorities,
        tenant_weights,
    )

    tenants = mix_tenants(100, records_per_thread=12)
    system = run_colocation(
        tenants,
        variant="SkyByte-Full",
        records_per_thread=12,
        isolation=isolation,
        weights=tenant_weights(tenants),
        priorities=tenant_priorities(tenants),
    )
    assert system.stats.execution_ns > 0
    assert len(system.tenant_stats) == 100
    assert all(s.offchip_latency.count > 0 for s in system.tenant_stats)
    assert all(end > 0 for end in system.tenant_end_ns)


def test_replay_cache_key_tracks_file_content(tmp_path):
    plan = build_colocation(TENANTS, scale=512, records_per_thread=RECORDS)
    path = tmp_path / "coloc.sbt"
    _write_colocation_trace(path, plan)
    job = SweepJob.make("coloc-test", "SkyByte-Full", trace=str(path))
    key_before = job.key()
    smaller = build_colocation(TENANTS, scale=512, records_per_thread=20)
    _write_colocation_trace(path, smaller)
    assert SweepJob.make("coloc-test", "SkyByte-Full",
                         trace=str(path)).key() != key_before
