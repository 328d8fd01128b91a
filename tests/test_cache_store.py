"""Tests for the ResultCache storage layer.

Exercises the sqlite index, size caps with LRU eviction, exact hit/miss/
put/evict accounting, prune, adoption of stray data files, multi-process
writers sharing one cache directory, and ``repro sweep`` and ``repro
serve`` sharing one directory.
"""

import gc
import json
import multiprocessing
import sqlite3
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.config import SimConfig
from repro.experiments import orchestrator
from repro.experiments.orchestrator import ResultCache
from repro.experiments.runner import RunResult
from repro.service.coordinator import SweepService
from repro.service.store import SqliteResultCache
from repro.sim.stats import SimStats


def fake_result(workload: str = "bc") -> RunResult:
    """A minimal, cheap RunResult (no simulation) for storage tests."""
    return RunResult(workload=workload, variant="Base-CSSD", threads=8,
                     stats=SimStats(), config=SimConfig())


def entry_size(tmp_path) -> int:
    probe = ResultCache(tmp_path / "probe")
    probe.put("probe", fake_result())
    return probe.size_bytes()


class TestBasics:
    def test_round_trip_and_counters(self, tmp_path):
        store = ResultCache(tmp_path)
        assert store.get("missing") is None
        store.put("k1", fake_result())
        hit = store.get("k1")
        assert hit is not None
        assert hit.workload == "bc"
        assert (store.hits, store.misses) == (1, 1)
        stats = store.stats()
        assert stats["index"] == "sqlite"
        assert (stats["hits"], stats["misses"], stats["puts"]) == (1, 1, 1)

    def test_index_file_is_not_an_entry(self, tmp_path):
        """Nor is the ``index.json`` a pre-sqlite version left."""
        (tmp_path / "index.json").write_text("{}")
        store = ResultCache(tmp_path)
        store.put("k1", fake_result())
        assert (tmp_path / ResultCache.INDEX_DB).is_file()
        assert [p.stem for p in store.entries()] == ["k1"]
        assert store.stats()["entries"] == 1

    def test_max_bytes_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
        assert ResultCache(tmp_path).max_bytes == 4096
        for junk in ("junk", "-1", "1e3"):
            monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", junk)
            with pytest.raises(ValueError, match="REPRO_CACHE_MAX_BYTES"):
                ResultCache(tmp_path)
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES")
        assert ResultCache(tmp_path).max_bytes == 0
        assert ResultCache(tmp_path, max_bytes=123).max_bytes == 123

    def test_missing_directory_reads_empty_and_is_not_created(self, tmp_path):
        root = tmp_path / "absent"
        store = ResultCache(root, max_bytes=1)
        stats = store.stats()
        assert (stats["entries"], stats["size_bytes"], stats["puts"]) == (0, 0, 0)
        assert store.prune() == 0
        assert store.clear() == 0
        assert store.get("k") is None
        assert not root.exists()

    def test_service_name_is_the_same_class(self):
        assert SqliteResultCache is ResultCache


class TestEviction:
    def test_cap_evicts_oldest_first(self, tmp_path):
        unit = entry_size(tmp_path)
        store = ResultCache(tmp_path / "c", max_bytes=3 * unit + unit // 2)
        for i in range(5):
            store.put(f"k{i}", fake_result())
        assert store.evictions == 2
        assert {p.stem for p in store.entries()} == {"k2", "k3", "k4"}
        assert store.size_bytes() <= store.max_bytes
        stats = store.stats()
        assert stats["puts"] == 5
        assert stats["evictions"] == 2
        assert stats["entries"] == 3

    def test_get_refreshes_lru_order(self, tmp_path):
        unit = entry_size(tmp_path)
        store = ResultCache(tmp_path / "c", max_bytes=3 * unit + unit // 2)
        for key in ("k0", "k1", "k2"):
            store.put(key, fake_result())
        assert store.get("k0") is not None  # touch: k0 is now most recent
        store.put("k3", fake_result())
        assert {p.stem for p in store.entries()} == {"k0", "k2", "k3"}
        assert store.evictions == 1

    def test_fresh_key_never_self_evicts(self, tmp_path):
        unit = entry_size(tmp_path)
        store = ResultCache(tmp_path / "c", max_bytes=unit // 2)
        store.put("k0", fake_result())
        assert [p.stem for p in store.entries()] == ["k0"]
        assert store.evictions == 0
        store.put("k1", fake_result())  # now k0 must go
        assert [p.stem for p in store.entries()] == ["k1"]
        assert store.evictions == 1

    def test_evicted_entry_is_a_miss_not_corruption(self, tmp_path):
        unit = entry_size(tmp_path)
        store = ResultCache(tmp_path / "c", max_bytes=unit)
        store.put("k0", fake_result())
        store.put("k1", fake_result())
        assert store.get("k0") is None
        assert store.get("k1") is not None


class TestPrune:
    def test_prune_to_explicit_cap(self, tmp_path):
        unit = entry_size(tmp_path)
        store = ResultCache(tmp_path / "c")  # unbounded
        for i in range(4):
            store.put(f"k{i}", fake_result())
        removed = store.prune(2 * unit)
        assert removed == 2
        assert {p.stem for p in store.entries()} == {"k2", "k3"}
        assert store.evictions == 2

    def test_prune_defaults_to_configured_cap(self, tmp_path):
        unit = entry_size(tmp_path)
        store = ResultCache(tmp_path / "c")
        for i in range(3):
            store.put(f"k{i}", fake_result())
        assert store.prune() == 0  # unbounded: nothing to do
        capped = ResultCache(tmp_path / "c", max_bytes=unit)
        assert capped.prune() == 2
        assert len(capped.entries()) == 1

    def test_clear_resets_index_and_stats(self, tmp_path):
        store = ResultCache(tmp_path)
        store.put("k0", fake_result())
        store.put("k1", fake_result())
        assert store.clear() == 2
        stats = store.stats()
        assert stats["entries"] == 0
        assert stats["puts"] == 0
        assert store.size_bytes() == 0
        assert store.get("k0") is None


class TestResilience:
    def test_adopts_legacy_unindexed_entries(self, tmp_path):
        """Data files the index does not know are adopted and are first
        in line for eviction (least recently used)."""
        stray = tmp_path / "straykey.json"
        stray.write_text(json.dumps(fake_result().to_dict()))
        store = ResultCache(tmp_path)
        assert store.stats()["entries"] == 1
        store.put("fresh", fake_result())
        store.prune(store.size_bytes() - 1)
        assert [p.stem for p in store.entries()] == ["fresh"]

    def test_index_dropped_when_file_vanishes(self, tmp_path):
        store = ResultCache(tmp_path)
        store.put("k0", fake_result())
        store.path_for("k0").unlink()
        assert store.stats()["entries"] == 0


class TestIndexSalvage:
    def test_mangled_entries_reconciled_from_disk(self, tmp_path):
        """Rows lost from the index (a writer killed between its blob and
        its row) are re-adopted from the directory -- nothing is
        orphaned -- and the lifetime counters survive."""
        store = ResultCache(tmp_path)
        for key in ("k0", "k1"):
            store.put(key, fake_result())
        store.get("k0")
        con = sqlite3.connect(str(tmp_path / ResultCache.INDEX_DB))
        con.execute("DELETE FROM entries WHERE key = 'k0'")
        con.commit()
        con.close()

        stats = ResultCache(tmp_path).stats()
        assert stats["entries"] == 2           # k0 came back via reconcile
        assert (stats["puts"], stats["hits"]) == (2, 1)

    def test_salvaged_blobs_stay_evictable(self, tmp_path):
        """With its index deleted, every blob must stay visible to the
        LRU: a fresh index adopts them first in line for eviction, so
        the next put holds the cap."""
        unit = entry_size(tmp_path)
        root = tmp_path / "c"
        old = ResultCache(root)
        for key in ("k0", "k1", "k2"):
            old.put(key, fake_result())
        old.close()
        (root / ResultCache.INDEX_DB).unlink()
        capped = ResultCache(root, max_bytes=unit + unit // 2)
        capped.put("fresh", fake_result())
        assert capped.size_bytes() <= capped.max_bytes
        assert [p.stem for p in capped.entries()] == ["fresh"]


def _hammer(root, worker_id, n, max_bytes):
    store = ResultCache(root, max_bytes=max_bytes)
    result = fake_result()
    for i in range(n):
        store.put(f"w{worker_id}k{i:03d}", result)
        store.get(f"w{worker_id}k{i:03d}")
        store.get(f"w{(worker_id + 1) % 4}k{i:03d}")


def _run_hammers(root, max_bytes, workers=4, n=20):
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_hammer, args=(root, w, n, max_bytes))
        for w in range(workers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    return workers * n


def _collect_inherited():
    gc.collect()
    sys.exit(len(orchestrator._INHERITED_CONNECTIONS))


class TestConcurrency:
    def test_forked_child_never_closes_inherited_connections(self, tmp_path):
        """A dead thread's index connection is cyclic garbage.  A forked
        child that collects it must not close it -- sqlite's mutexes may
        have been held by another parent thread at the fork, which used
        to deadlock ``repro serve``'s process-pool workers -- so it is
        kept alive instead, and the parent's index is untouched."""
        store = ResultCache(tmp_path)
        gc.disable()
        try:
            writer = threading.Thread(target=store.put,
                                      args=("k", fake_result()))
            writer.start()
            writer.join()
            child = multiprocessing.get_context("fork").Process(
                target=_collect_inherited)
            child.start()
            child.join(timeout=60)
        finally:
            gc.enable()
        # At least the writer's connection; earlier garbage may join it.
        assert child.exitcode >= 1
        gc.collect()
        assert orchestrator._INHERITED_CONNECTIONS == []
        stats = store.stats()
        assert stats["puts"] == 1 and stats["entries"] == 1

    def test_first_open_waits_out_a_racing_wal_switch(self, tmp_path):
        """Two first openers of a fresh index race to switch it to WAL
        (a ``/metrics`` scrape against a job's first cache read).
        sqlite does not retry a journal-mode switch under the busy
        timeout, so unless the loser waits it gets "database is locked"
        at once.  The racer here holds the fresh file in rollback mode
        for 0.3 s, as the winner does mid-switch; ``stats()`` must wait
        it out."""
        held, release = threading.Event(), threading.Event()

        def racer():
            con = sqlite3.connect(tmp_path / ResultCache.INDEX_DB,
                                  isolation_level=None)
            con.execute("BEGIN IMMEDIATE")
            con.execute("CREATE TABLE racer (x)")
            held.set()
            release.wait(0.3)
            con.execute("COMMIT")
            con.close()

        thread = threading.Thread(target=racer)
        thread.start()
        try:
            assert held.wait(10)
            store = ResultCache(tmp_path)
            assert store.stats()["entries"] == 0
            mode = store._db().execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"
        finally:
            release.set()
            thread.join(10)

    def test_concurrent_writers_exact_accounting(self, tmp_path):
        """Unbounded cache: no update may be lost under contention."""
        puts = _run_hammers(tmp_path, max_bytes=0)
        store = ResultCache(tmp_path)
        stats = store.stats()
        # Exact counters prove index updates were never lost: every put
        # registered, every get resolved to exactly one hit or miss.
        assert stats["puts"] == puts
        assert stats["entries"] == puts
        assert stats["evictions"] == 0
        assert stats["hits"] + stats["misses"] == 2 * puts
        assert stats["hits"] >= puts  # each writer re-reads its own key
        for path in store.entries():
            assert store.get(path.stem) is not None

    def test_concurrent_writers_capped_never_corrupt(self, tmp_path):
        unit = entry_size(tmp_path / "probe-dir")
        cap = 5 * unit
        _run_hammers(tmp_path / "shared", max_bytes=cap)
        store = ResultCache(tmp_path / "shared", max_bytes=cap)
        stats = store.stats()
        assert stats["size_bytes"] <= cap
        assert stats["puts"] == 80
        # Every surviving index entry must be a readable result.
        for path in store.entries():
            assert store.get(path.stem) is not None, path.stem


class TestSharedDirectory:
    def test_sweep_serve_sweep_keeps_one_index(self, tmp_path):
        """``repro sweep``, ``repro serve`` and ``repro sweep`` again on
        one ``--cache-dir`` share a single index whose lifetime
        counters are the true totals (3 puts, 2 hits)."""
        cache_dir = tmp_path / "cache"
        records = "60"

        def sweep(*workloads):
            assert main(["sweep", "--workloads", ",".join(workloads),
                         "--variants", "DRAM-Only", "--records", records,
                         "--jobs", "1", "--cache-dir", str(cache_dir),
                         "--quiet"]) == 0

        sweep("bc")                                     # put bc
        with SweepService(state_dir=tmp_path / "state", cache_dir=cache_dir,
                          jobs=1) as svc:               # hit bc, put ycsb
            jid = svc.submit("sweep", {"workloads": ["bc", "ycsb"],
                                       "variants": ["DRAM-Only"],
                                       "records": int(records)})
            deadline = time.monotonic() + 120
            while svc.store.get(jid)["state"] not in ("done", "failed"):
                assert time.monotonic() < deadline, "service job timed out"
                time.sleep(0.05)
            assert svc.store.get(jid)["state"] == "done"
        sweep("ycsb", "tpcc")                           # hit ycsb, put tpcc

        assert (cache_dir / ResultCache.INDEX_DB).is_file()
        assert not (cache_dir / "index.json").exists()
        stats = ResultCache(cache_dir).stats()
        assert (stats["puts"], stats["hits"]) == (3, 2)
        assert stats["entries"] == 3
