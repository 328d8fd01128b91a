"""Golden-run regression tests: pinned results every backend must match.

``tests/golden/`` pins, per (workload, variant) cell, the summary stats
and a SHA-256 over the canonical ``RunResult.to_dict()`` JSON of a
short seed-fixed run.  These tests assert that the serial path and
every execution backend -- kept local cell processes and dial-in
workers on localhost (real ``python -m repro worker`` subprocesses) --
reproduce those results *byte-identically*.

A legitimate simulator-semantics change invalidates the pins; refresh
them with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_fidelity.py

and commit the diff under ``tests/golden/`` (reviewers then see exactly
which workloads moved).
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from _worker_utils import free_port, wait_for_dial_ins
from repro.experiments.backends import DistributedBackend, LocalProcessBackend
from repro.experiments.orchestrator import (
    ResultCache,
    SweepJob,
    run_sweep,
    stream_sweep,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
RECORDS = 100  # short but long enough to exercise flash, cache and log paths
SEED = 42
CELLS = (
    ("bc", "Base-CSSD"),
    ("bc", "SkyByte-Full"),
    ("ycsb", "DRAM-Only"),
)


def golden_jobs():
    return [
        SweepJob.make(wl, variant, records_per_thread=RECORDS, seed=SEED)
        for wl, variant in CELLS
    ]


def golden_path(workload: str, variant: str) -> Path:
    return GOLDEN_DIR / f"{workload}__{variant}.json"


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def digest(result) -> str:
    return hashlib.sha256(canonical(result).encode("utf-8")).hexdigest()


def assert_matches_golden(results):
    assert len(results) == len(CELLS)
    for (workload, variant), result in zip(CELLS, results):
        pinned = json.loads(golden_path(workload, variant).read_text())
        assert pinned["records_per_thread"] == RECORDS
        assert result.stats.summary() == pinned["summary"], (workload, variant)
        assert digest(result) == pinned["result_sha256"], (workload, variant)


@pytest.fixture(scope="module")
def serial_results():
    results = run_sweep(golden_jobs())
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        for (workload, variant), result in zip(CELLS, results):
            golden_path(workload, variant).write_text(
                json.dumps(
                    {
                        "workload": workload,
                        "variant": variant,
                        "records_per_thread": RECORDS,
                        "seed": SEED,
                        "summary": result.stats.summary(),
                        "result_sha256": digest(result),
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
    return results


def test_golden_files_exist(serial_results):
    missing = [
        golden_path(wl, variant).name
        for wl, variant in CELLS
        if not golden_path(wl, variant).is_file()
    ]
    assert not missing, (
        f"missing golden pins {missing}; regenerate with "
        f"REPRO_UPDATE_GOLDEN=1 (see module docstring)"
    )


def test_serial_matches_golden(serial_results):
    assert_matches_golden(serial_results)


def test_process_backend_matches_golden():
    with LocalProcessBackend(2) as backend:
        results = run_sweep(golden_jobs(), backend=backend)
    assert_matches_golden(results)


def test_distributed_backend_matches_golden(spawn_worker):
    """Two real worker subprocesses dialing in over TCP (the ISSUE's
    ``python -m repro worker --connect HOST:PORT`` path)."""
    with DistributedBackend(listen="127.0.0.1:0") as backend:
        host, port = backend.address
        procs = [
            spawn_worker("--connect", f"{host}:{port}", "--no-cache")
            for _ in range(2)
        ]
        wait_for_dial_ins(port, 2)
        results = run_sweep(golden_jobs(), backend=backend)
    assert_matches_golden(results)
    for proc in procs:
        assert proc.wait(timeout=30) == 0


def test_distributed_dial_mode_matches_golden(spawn_worker):
    """One worker started *before* its coordinator (``--connect`` keeps
    redialing until the listener is up) serving a single connection
    (``--once``), as the CLI's ``sweep --listen`` runs it."""
    address = f"127.0.0.1:{free_port()}"
    proc = spawn_worker("--connect", address, "--once", "--no-cache")
    with DistributedBackend(listen=address) as backend:
        results = run_sweep(golden_jobs(), backend=backend)
    assert_matches_golden(results)
    assert proc.wait(timeout=30) == 0


def test_streamed_results_match_golden():
    """Streaming delivery (stream_sweep) is byte-identical to the
    barrier path: same cells, same pins, whatever order they complete."""
    results = [None] * len(CELLS)
    for update in stream_sweep(golden_jobs()):
        for i in update.positions:
            results[i] = update.result
    assert_matches_golden(results)


def test_cached_results_match_golden(tmp_path):
    """A result that round-trips through the on-disk cache is still
    byte-identical to the pinned run."""
    run_sweep(golden_jobs(), cache=ResultCache(tmp_path))
    cached = run_sweep(golden_jobs(), cache=ResultCache(tmp_path))
    assert_matches_golden(cached)
