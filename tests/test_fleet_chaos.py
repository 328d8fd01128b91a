"""Chaos-style tests for elastic dial-in sweeps.

Workers join a fleet one way: they dial a listening coordinator
(``DistributedBackend(listen=...)``, ``repro worker --connect``).  A
sweep over such a fleet completes correctly when a worker is killed
mid-cell (the cell is retried elsewhere within its budget), a cell
whose budget is exhausted fails the sweep with a clear error, and a
worker that joins after the sweep started picks up the queued cells.
A sweep ends with its last cell, not a poll period later, and a
SIGKILLed worker's idle cell child exits instead of serving on.
"""

import json
import os
import signal
import socket
import statistics
import threading
import time

import pytest

from _worker_utils import wait_for_dial_ins
from repro.experiments import backends
from repro.experiments import worker as worker_mod
from repro.experiments.backends import CellPolicy, DistributedBackend
from repro.experiments.orchestrator import SweepJob, run_sweep

R = 120  # tiny traces: these tests check plumbing, not magnitudes


def tiny_jobs():
    return [
        SweepJob.make("bc", "Base-CSSD", records_per_thread=R),
        SweepJob.make("bc", "DRAM-Only", records_per_thread=R),
        SweepJob.make("ycsb", "SkyByte-Full", records_per_thread=R),
    ]


def dumps(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


def dial_in_worker(address):
    """A real worker loop (``serve_connection``) dialing in on a thread,
    redialing after each dismissal like ``repro worker --connect``."""

    def loop():
        while True:
            try:
                sock = socket.create_connection(address)
            except OSError:
                return  # the coordinator closed its listener
            try:
                with sock:
                    worker_mod.serve_connection(sock)
            except OSError:
                return

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    return thread


class TestDialInFleet:
    def test_dial_in_sweep_matches_serial(self, spawn_worker):
        """Two real ``repro worker --connect`` processes serve a sweep
        byte-identically to the serial path, then exit cleanly when the
        coordinator closes its listener."""
        serial = run_sweep(tiny_jobs())
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            address = "%s:%d" % backend.address
            procs = [spawn_worker("--connect", address, "--no-cache")
                     for _ in range(2)]
            wait_for_dial_ins(backend.address[1], 2)
            results = run_sweep(tiny_jobs(), backend=backend)
        assert dumps(results) == dumps(serial)
        for proc in procs:
            assert proc.wait(timeout=30) == 0

    def test_worker_killed_mid_cell_retried_elsewhere(self):
        """The acceptance scenario: one of two dial-in workers dies
        mid-cell; its cell is retried on the survivor within budget."""
        serial = run_sweep(tiny_jobs())
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            took_cell = threading.Event()

            def doomed_worker():
                sock = socket.create_connection(backend.address)
                rfile = sock.makefile("r", encoding="utf-8")
                backends.send_msg(sock, {
                    "type": "hello", "version": backends.PROTOCOL_VERSION,
                })
                backends.recv_msg(rfile)  # accept a cell...
                took_cell.set()
                rfile.close()  # ...and die: connection gone mid-cell
                sock.close()

            threading.Thread(target=doomed_worker, daemon=True).start()

            def survivor_after_kill():
                assert took_cell.wait(timeout=20)
                dial_in_worker(backend.address)

            threading.Thread(target=survivor_after_kill, daemon=True).start()
            results = run_sweep(tiny_jobs(), backend=backend)
            assert took_cell.is_set()
        assert dumps(results) == dumps(serial)

    def test_retry_budget_exhausted_fails_with_clear_error(self):
        policy = CellPolicy(retry_budget=2)
        with DistributedBackend(listen="127.0.0.1:0", policy=policy) as backend:

            def bad_worker():
                sock = socket.create_connection(backend.address)
                with sock:
                    rfile = sock.makefile("r", encoding="utf-8")
                    backends.send_msg(sock, {
                        "type": "hello",
                        "version": backends.PROTOCOL_VERSION,
                    })
                    while True:
                        msg = backends.recv_msg(rfile)
                        if msg is None or msg.get("type") != "job":
                            return
                        backends.send_msg(sock, {
                            "type": "result", "id": msg["id"],
                            "ok": False, "error": "boom",
                        })

            threading.Thread(target=bad_worker, daemon=True).start()
            with pytest.raises(
                RuntimeError, match="retry budget 2 exhausted.*boom"
            ):
                run_sweep(tiny_jobs()[:1], backend=backend)

    def test_late_joining_worker_picks_up_queued_cells(self):
        """A sweep started with no workers waits; a worker that dials in
        later drains the queue."""
        serial = run_sweep(tiny_jobs())
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            results_box = {}

            def sweep():
                results_box["results"] = run_sweep(
                    tiny_jobs(), backend=backend
                )

            thread = threading.Thread(target=sweep, daemon=True)
            thread.start()
            time.sleep(0.8)  # the sweep is queued with zero workers
            assert thread.is_alive()
            dial_in_worker(backend.address)
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert dumps(results_box["results"]) == dumps(serial)

    def test_sweep_ends_with_its_last_cell(self):
        """``run`` returns the moment its last cell finishes: the accept
        loop and the idle connections are woken, not polled (a 0.2 s
        poll would end each sweep up to 0.2 s late)."""
        job = tiny_jobs()[1]
        lags = []
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            for _ in range(2):
                dial_in_worker(backend.address)
            for _ in range(5):
                finished = []
                backend.run([(job.key(), job)],
                            lambda key, result: finished.append(
                                time.monotonic()))
                lags.append(time.monotonic() - finished[-1])
        assert statistics.median(lags) < 0.1, lags

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="reads the process tree from /proc")
    def test_sigkilled_worker_leaves_no_cell_child(self, spawn_worker):
        """The worker keeps one cell child across sweeps; SIGKILL the
        worker between sweeps and the idle child reads EOF on its pipe
        and exits rather than living on as an orphan."""
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            proc = spawn_worker("--connect", "%s:%d" % backend.address,
                                "--no-cache")
            run_sweep(tiny_jobs()[:1], backend=backend)
            children = _children(proc.pid)
            assert len(children) == 1, children  # the idle cell child
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while _running(children[0]) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not _running(children[0]), "orphaned cell child lives on"


def _children(pid):
    with open(f"/proc/{pid}/task/{pid}/children") as handle:
        return [int(child) for child in handle.read().split()]


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False
