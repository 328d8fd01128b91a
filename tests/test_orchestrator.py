"""Tests for the parallel sweep orchestrator and its result cache."""

import json

import pytest

from repro.config import scaled_config, SimConfig
from repro.experiments.backends import LocalProcessBackend
from repro.experiments.orchestrator import (
    ResultCache,
    SweepJob,
    run_sweep,
    sweep_product,
)
from repro.experiments.runner import RunResult, run_workload

R = 120  # tiny traces: these tests check plumbing, not magnitudes


def tiny_job(workload="bc", variant="Base-CSSD", **params):
    params.setdefault("records_per_thread", R)
    return SweepJob.make(workload, variant, **params)


class TestSerialization:
    def test_simconfig_round_trip(self):
        config = scaled_config(scale=256, threads=12, timing="MLC", seed=7)
        config = config.replace(ssd=dict(prefetch_depth=3)).replace(os=dict(t_policy="RR"))
        rebuilt = SimConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    def test_runresult_round_trip(self):
        result = run_workload("bc", "Base-CSSD", records_per_thread=R)
        data = json.loads(json.dumps(result.to_dict()))
        rebuilt = RunResult.from_dict(data)
        assert rebuilt.workload == result.workload
        assert rebuilt.variant == result.variant
        assert rebuilt.threads == result.threads
        assert rebuilt.config == result.config
        assert rebuilt.stats.summary() == result.stats.summary()
        # Histograms and trackers survive, not just scalars.
        assert (rebuilt.stats.offchip_latency.cdf()
                == result.stats.offchip_latency.cdf())
        assert (rebuilt.stats.read_locality.cdf()
                == result.stats.read_locality.cdf())
        # And the round trip is a fixed point (byte-identical JSON).
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )

    def test_empty_stats_round_trip(self):
        from repro.sim.stats import SimStats

        stats = SimStats.from_dict(json.loads(json.dumps(SimStats().to_dict())))
        assert stats.offchip_latency.count == 0
        assert stats.offchip_latency.min == 0.0
        assert stats.amat_ns == 0.0


class TestSweepJob:
    def test_canonicalises_names(self):
        job = SweepJob.make("YCSB-B", "skybyte-full", records_per_thread=R)
        assert job.workload == "ycsb"
        assert job.variant == "SkyByte-Full"

    def test_drops_none_params(self):
        job = SweepJob.make("bc", "Base-CSSD", records_per_thread=R,
                            threads=None, seed=None)
        assert job.kwargs() == {"records_per_thread": R}

    def test_ssd_overrides_hashable_and_restored(self):
        job = SweepJob.make("bc", "Base-CSSD", records_per_thread=R,
                            ssd_overrides={"prefetch_depth": 0})
        hash(job)  # must not raise
        assert job.kwargs()["ssd_overrides"] == {"prefetch_depth": 0}

    def test_nested_overrides_hash_and_round_trip_the_wire(self):
        from repro.experiments.backends import job_from_wire, job_to_wire

        job = SweepJob.make("bc", "Base-CSSD", records_per_thread=50,
                            ssd_overrides={"geometry": {"channels": 4}},
                            device_model={"kind": "deep"})
        hash(job)  # must not raise
        assert job.kwargs()["ssd_overrides"] == {"geometry": {"channels": 4}}
        wire = json.loads(json.dumps(job_to_wire(job)))
        back = job_from_wire(wire)
        assert back == job and hash(back) == hash(job)
        assert back.key() == job.key()

    def test_key_stable_across_spellings(self):
        a = SweepJob.make("ycsb-b", "skybyte-full", records_per_thread=R)
        b = SweepJob.make("ycsb", "SkyByte-Full", records_per_thread=R)
        assert a.key() == b.key()

    def test_key_changes_with_config(self):
        base = tiny_job()
        assert base.key() != tiny_job(records_per_thread=R + 1).key()
        assert base.key() != tiny_job(variant="SkyByte-W").key()
        assert base.key() != tiny_job(workload="ycsb").key()
        assert base.key() != tiny_job(seed=43).key()
        assert base.key() != tiny_job(
            ssd_overrides={"prefetch_depth": 0}).key()

    def test_sweep_product_order(self):
        jobs = sweep_product(["bc", "ycsb"], ["Base-CSSD", "DRAM-Only"],
                             records_per_thread=R)
        assert [(j.workload, j.variant) for j in jobs] == [
            ("bc", "Base-CSSD"), ("bc", "DRAM-Only"),
            ("ycsb", "Base-CSSD"), ("ycsb", "DRAM-Only"),
        ]


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        store = ResultCache(tmp_path)
        job = tiny_job()
        first = run_sweep([job], cache=store)
        assert (store.hits, store.misses) == (0, 1)
        assert len(store.entries()) == 1
        again = run_sweep([job], cache=store)
        assert (store.hits, store.misses) == (1, 1)
        assert json.dumps(again[0].to_dict()) == json.dumps(first[0].to_dict())

    def test_config_change_misses(self, tmp_path):
        store = ResultCache(tmp_path)
        run_sweep([tiny_job()], cache=store)
        run_sweep([tiny_job(ssd_overrides={"prefetch_depth": 0})],
                  cache=store)
        assert store.misses == 2
        assert store.hits == 0
        assert len(store.entries()) == 2

    def test_cache_hit_skips_simulation(self, tmp_path, monkeypatch):
        store = ResultCache(tmp_path)
        job = tiny_job()
        run_sweep([job], cache=store)

        def boom(_job):
            raise AssertionError("cache hit must not re-simulate")

        monkeypatch.setattr("repro.experiments.orchestrator._execute_job", boom)
        result = run_sweep([job], cache=store)[0]
        assert result.workload == "bc"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultCache(tmp_path)
        job = tiny_job()
        run_sweep([job], cache=store)
        store.path_for(job.key()).write_text("{not json")
        result = run_sweep([job], cache=store)[0]
        assert result.stats.instructions > 0
        assert store.misses == 2

    def test_clear(self, tmp_path):
        store = ResultCache(tmp_path)
        run_sweep([tiny_job()], cache=store)
        assert store.clear() == 1
        assert store.entries() == []
        assert store.size_bytes() == 0


class TestRunSweep:
    def test_parallel_matches_serial_byte_identical(self):
        specs = [
            tiny_job("bc", "Base-CSSD"),
            tiny_job("bc", "DRAM-Only"),
            tiny_job("ycsb", "SkyByte-Full"),
        ]
        serial = run_sweep(specs)
        with LocalProcessBackend(2) as backend:
            parallel = run_sweep(specs, backend=backend)
        for s, p in zip(serial, parallel):
            assert json.dumps(s.to_dict(), sort_keys=True) == json.dumps(
                p.to_dict(), sort_keys=True
            )

    def test_matches_direct_run_workload(self):
        job = tiny_job()
        via_sweep = run_sweep([job])[0]
        direct = run_workload("bc", "Base-CSSD", records_per_thread=R)
        assert json.dumps(via_sweep.to_dict(), sort_keys=True) == json.dumps(
            direct.to_dict(), sort_keys=True
        )

    def test_preserves_order_and_dedupes(self, tmp_path):
        store = ResultCache(tmp_path)
        specs = [tiny_job(), tiny_job("ycsb"), tiny_job()]
        results = run_sweep(specs, cache=store)
        assert [r.workload for r in results] == ["bc", "ycsb", "bc"]
        # The duplicate bc cell simulated (and cached) only once.
        assert store.misses == 2
        assert len(store.entries()) == 2

    def test_progress_reports_source(self, tmp_path):
        store = ResultCache(tmp_path)
        events = []

        def on_update(update):
            events.append((update.job.label(), update.source))

        run_sweep([tiny_job()], cache=store, on_update=on_update)
        run_sweep([tiny_job()], cache=store, on_update=on_update)
        assert events == [("bc/Base-CSSD", "run"), ("bc/Base-CSSD", "cache")]


class TestExperimentsThroughOrchestrator:
    @staticmethod
    def figure(name, workloads, **options):
        from repro.experiments.jobspec import FIGURES

        figure = FIGURES[name]
        results = run_sweep(figure.cells(workloads, R), **options)
        return figure.reduce(workloads, R, results)

    def test_fig14_with_cache_and_jobs(self, tmp_path):
        store = ResultCache(tmp_path)
        first = self.figure("fig14", ["bc"], cache=store)
        assert store.misses == 8
        with LocalProcessBackend(2) as backend:
            second = self.figure("fig14", ["bc"], cache=store,
                                 backend=backend)
        assert store.hits == 8
        assert first == second
        assert first["bc"]["Base-CSSD"] == 1.0

    def test_ablation_override_matches_plain_run(self):
        rows = self.figure("prefetch-ablation", ["bc"])
        direct = run_workload("bc", "Base-CSSD", records_per_thread=R,
                              ssd_overrides={"prefetch_depth": 1})
        assert rows["bc"]["with_prefetch_ipns"] == pytest.approx(
            direct.stats.throughput_ipns
        )
