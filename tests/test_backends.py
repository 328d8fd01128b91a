"""Tests for the pluggable sweep execution backends.

Covers backend resolution (names, env knobs, listen addresses), the
thread backend's byte-identical results, and the distributed backend's
TCP/JSON protocol with dial-in workers: shared caches, worker failure
reporting, requeueing cells from dead connections, and preemption.
"""

import io
import json
import select
import socket
import struct
import threading
import time

import pytest

from repro.experiments import backends
from repro.experiments import worker as worker_mod
from repro.experiments.backends import (
    CellPolicy,
    DistributedBackend,
    LocalProcessBackend,
    SweepBackend,
    ThreadBackend,
    parse_address,
    resolve_backend,
)
from repro.experiments.orchestrator import ResultCache, SweepJob, run_sweep

R = 120  # tiny traces: these tests check plumbing, not magnitudes


def tiny_jobs():
    return [
        SweepJob.make("bc", "Base-CSSD", records_per_thread=R),
        SweepJob.make("bc", "DRAM-Only", records_per_thread=R),
        SweepJob.make("ycsb", "SkyByte-Full", records_per_thread=R),
    ]


def dumps(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


class TestResolution:
    def test_default_is_local(self, monkeypatch):
        monkeypatch.delenv(backends.BACKEND_ENV, raising=False)
        backend = resolve_backend(None, jobs=3)
        assert isinstance(backend, LocalProcessBackend)
        assert backend.jobs == 3

    def test_names(self):
        assert isinstance(resolve_backend("local", jobs=2), LocalProcessBackend)
        assert isinstance(resolve_backend("thread", jobs=2), ThreadBackend)
        serial = resolve_backend("serial", jobs=8)
        assert isinstance(serial, LocalProcessBackend)
        assert serial.jobs == 1

    def test_instance_passes_through(self):
        backend = ThreadBackend(2)
        assert resolve_backend(backend) is backend

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "thread")
        assert isinstance(resolve_backend(None, jobs=2), ThreadBackend)

    def test_env_supplies_workers(self, monkeypatch):
        """REPRO_BENCH_BACKEND=distributed:HOST:PORT binds the address
        the worker fleet dials in to."""
        monkeypatch.setenv(backends.BACKEND_ENV, "distributed:127.0.0.1:0")
        with resolve_backend(None) as backend:
            assert isinstance(backend, DistributedBackend)
            host, port = backend.address
            assert host == "127.0.0.1" and port > 0

    def test_spec_suffix_supplies_workers(self):
        with resolve_backend("distributed:127.0.0.1:0") as backend:
            host, port = backend.address
            assert host == "127.0.0.1" and port > 0
            # perfbench parses ``listen=H:P`` out of this text.
            assert backend.describe() == (
                f"distributed[listen={host}:{port},"
                f"{backend.policy.describe()}]"
            )

    def test_explicit_workers_beat_env_backend(self, monkeypatch):
        """A typed fleet address must not lose to an ambient env default."""
        monkeypatch.setenv(backends.BACKEND_ENV, "thread")
        with resolve_backend("distributed:127.0.0.1:0") as backend:
            assert isinstance(backend, DistributedBackend)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            resolve_backend("carrier-pigeon")

    def test_distributed_without_workers_raises(self):
        """Without a listen address there is nowhere for workers to dial."""
        with pytest.raises(ValueError, match="--listen.*worker --connect"):
            resolve_backend("distributed")

    def test_parse_address(self):
        assert parse_address("host:8") == ("host", 8)
        assert parse_address("7001") == ("127.0.0.1", 7001)
        assert parse_address(("", 9)) == ("127.0.0.1", 9)
        assert parse_address("h:0") == ("h", 0)
        assert parse_address("h:65535") == ("h", 65535)
        for bad in ("no-port", "host:", "127.0.0.1:99999", "127.0.0.1:70000",
                    ("h", 65536), ("h", -1)):
            with pytest.raises(ValueError, match="bad address"):
                parse_address(bad)

    def test_describe(self):
        assert LocalProcessBackend(4).describe() == "local[jobs=4]"
        assert ThreadBackend(2).describe() == "thread[jobs=2]"
        assert SweepBackend().describe() == "abstract"

    def test_policy_reaches_instances_and_specs(self):
        policy = CellPolicy(cell_timeout=1.5, retry_budget=7)
        with resolve_backend("distributed:127.0.0.1:0",
                             policy=policy) as spec_built:
            assert spec_built.policy is policy
        with DistributedBackend(listen="127.0.0.1:0") as instance:
            assert resolve_backend(instance, policy=policy).policy is policy


class TestCellPolicy:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(backends.CELL_TIMEOUT_ENV, raising=False)
        monkeypatch.delenv(backends.RETRY_BUDGET_ENV, raising=False)
        policy = CellPolicy.from_env()
        assert policy.cell_timeout is None
        assert policy.retry_budget == 3
        assert policy.quarantine_after == 3
        assert policy.describe() == "timeout=inf,budget=3"

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(backends.CELL_TIMEOUT_ENV, "2.5")
        monkeypatch.setenv(backends.RETRY_BUDGET_ENV, "5")
        policy = CellPolicy.from_env()
        assert policy.cell_timeout == 2.5
        assert policy.retry_budget == 5
        assert policy.describe() == "timeout=2.5s,budget=5"

    def test_zero_timeout_means_unlimited(self, monkeypatch):
        monkeypatch.setenv(backends.CELL_TIMEOUT_ENV, "0")
        assert CellPolicy.from_env().cell_timeout is None
        assert CellPolicy(cell_timeout=-1.0).cell_timeout is None

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(backends.CELL_TIMEOUT_ENV, "soon")
        monkeypatch.setenv(backends.RETRY_BUDGET_ENV, "many")
        policy = CellPolicy.from_env()
        assert policy.cell_timeout is None
        assert policy.retry_budget == 3

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="retry_budget"):
            CellPolicy(retry_budget=0)

    def test_explicit_quarantine_kept(self):
        assert CellPolicy(retry_budget=5, quarantine_after=2).quarantine_after == 2


class TestThreadBackend:
    def test_matches_serial_byte_identical(self):
        serial = run_sweep(tiny_jobs(), jobs=1, cache=False)
        threaded = run_sweep(tiny_jobs(), jobs=3, cache=False, backend="thread")
        assert dumps(serial) == dumps(threaded)

    def test_uses_cache(self, tmp_path):
        store = ResultCache(tmp_path)
        run_sweep(tiny_jobs(), jobs=2, cache=store, backend=ThreadBackend(2))
        assert store.misses == 3
        run_sweep(tiny_jobs(), jobs=2, cache=store, backend=ThreadBackend(2))
        assert store.hits == 3


def start_inprocess_worker(address, cache=None):
    """A real worker (the module the CLI runs), dialing in on a thread."""

    def serve():
        sock = socket.create_connection(address)
        with sock:
            worker_mod.serve_connection(sock, cache)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


class TestDistributedBackend:
    def test_listen_mode_matches_serial(self):
        serial = run_sweep(tiny_jobs(), jobs=1, cache=False)
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            workers = [start_inprocess_worker(backend.address) for _ in range(2)]
            results = run_sweep(tiny_jobs(), cache=False, backend=backend)
        assert dumps(results) == dumps(serial)
        for thread in workers:
            thread.join(timeout=5)

    def test_dedup_and_order_preserved(self, tmp_path):
        store = ResultCache(tmp_path)
        specs = tiny_jobs() + [tiny_jobs()[0]]  # duplicate first cell
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            start_inprocess_worker(backend.address)
            results = run_sweep(specs, cache=store, backend=backend)
        assert [r.workload for r in results] == ["bc", "bc", "ycsb", "bc"]
        assert dumps([results[0]]) == dumps([results[3]])
        assert store.misses == 3  # the duplicate never crossed the wire

    def test_workers_share_coordinator_cache(self, tmp_path):
        """A cell cached by a local sweep is served, not re-simulated,
        when the worker points at the same cache directory."""
        run_sweep(tiny_jobs(), jobs=1, cache=ResultCache(tmp_path))
        worker_store = ResultCache(tmp_path)
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            start_inprocess_worker(backend.address, cache=worker_store)
            results = run_sweep(tiny_jobs(), cache=False, backend=backend)
        assert worker_store.hits == 3
        assert worker_store.misses == 0
        assert dumps(results) == dumps(run_sweep(tiny_jobs(), jobs=1, cache=False))

    def test_worker_cell_failure_raises(self):
        with DistributedBackend(listen="127.0.0.1:0") as backend:

            def bad_worker():
                sock = socket.create_connection(backend.address)
                with sock:
                    rfile = sock.makefile("r", encoding="utf-8")
                    backends.send_msg(
                        sock,
                        {"type": "hello", "version": backends.PROTOCOL_VERSION},
                    )
                    while True:
                        msg = backends.recv_msg(rfile)
                        if msg is None or msg.get("type") != "job":
                            return
                        backends.send_msg(
                            sock,
                            {"type": "result", "id": msg["id"],
                             "ok": False, "error": "boom"},
                        )

            threading.Thread(target=bad_worker, daemon=True).start()
            with pytest.raises(RuntimeError, match="boom"):
                run_sweep(tiny_jobs()[:1], cache=False, backend=backend)

    def test_dead_worker_requeues_cell(self):
        """A connection dying mid-cell hands the cell to a survivor."""
        with DistributedBackend(listen="127.0.0.1:0") as backend:

            def flaky_worker():
                sock = socket.create_connection(backend.address)
                rfile = sock.makefile("r", encoding="utf-8")
                backends.send_msg(
                    sock, {"type": "hello", "version": backends.PROTOCOL_VERSION}
                )
                backends.recv_msg(rfile)  # accept one cell...
                sock.close()  # ...and die without answering

            threading.Thread(target=flaky_worker, daemon=True).start()
            time.sleep(0.3)  # let the flaky worker grab a cell first
            start_inprocess_worker(backend.address)
            results = run_sweep(tiny_jobs(), cache=False, backend=backend)
        assert dumps(results) == dumps(run_sweep(tiny_jobs(), jobs=1, cache=False))

    def test_cell_timeout_retries_on_another_worker(self):
        """An attempt exceeding the cell timeout is abandoned and the
        cell retried on a live worker, within budget."""
        policy = CellPolicy(cell_timeout=0.5, retry_budget=3)
        with DistributedBackend(listen="127.0.0.1:0", policy=policy) as backend:
            stalled = threading.Event()

            def stalling_worker():
                sock = socket.create_connection(backend.address)
                rfile = sock.makefile("r", encoding="utf-8")
                backends.send_msg(
                    sock, {"type": "hello", "version": backends.PROTOCOL_VERSION}
                )
                backends.recv_msg(rfile)  # take the cell...
                stalled.set()
                time.sleep(30)  # ...and never answer (hung host)
                sock.close()

            def good_worker_after_stall():
                # Join only once the staller owns the cell, so the
                # retry provably lands on a different worker.
                assert stalled.wait(timeout=20)
                start_inprocess_worker(backend.address)

            threading.Thread(target=stalling_worker, daemon=True).start()
            threading.Thread(target=good_worker_after_stall,
                             daemon=True).start()
            results = run_sweep(tiny_jobs()[:1], cache=False, backend=backend)
            assert stalled.is_set()
        assert dumps(results) == dumps(
            run_sweep(tiny_jobs()[:1], jobs=1, cache=False)
        )

    def test_repeatedly_failing_worker_quarantined(self):
        """quarantine_after failures on one connection stop it from
        eating the whole retry budget; a healthy worker finishes."""
        policy = CellPolicy(retry_budget=10, quarantine_after=2)
        with DistributedBackend(listen="127.0.0.1:0", policy=policy) as backend:
            jobs_seen = []
            got_bye = threading.Event()

            def bad_worker():
                sock = socket.create_connection(backend.address)
                rfile = sock.makefile("r", encoding="utf-8")
                backends.send_msg(
                    sock, {"type": "hello", "version": backends.PROTOCOL_VERSION}
                )
                while True:
                    msg = backends.recv_msg(rfile)
                    if msg is None or msg.get("type") != "job":
                        got_bye.set()  # dismissed by the quarantine
                        return
                    jobs_seen.append(msg["key"])
                    backends.send_msg(
                        sock,
                        {"type": "result", "id": msg["id"],
                         "ok": False, "error": "flaky host"},
                    )
                    if len(jobs_seen) == 2:
                        # Only now bring in the healthy worker, so every
                        # pre-quarantine attempt hit this flaky one.
                        start_inprocess_worker(backend.address)

            threading.Thread(target=bad_worker, daemon=True).start()
            results = run_sweep(tiny_jobs()[:1], cache=False, backend=backend)
            assert got_bye.wait(timeout=10)
        # Exactly quarantine_after attempts reached the flaky worker,
        # and the budget (10) was nowhere near exhausted.
        assert len(jobs_seen) == 2
        assert dumps(results) == dumps(
            run_sweep(tiny_jobs()[:1], jobs=1, cache=False)
        )

    def test_all_attempts_dead_exhausts_retry_budget(self):
        """A worker that keeps dying mid-cell (and dialing back in) burns
        the cell's retry budget, and the error carries the history."""
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            stop = threading.Event()

            address = backend.address

            def doomed_worker():
                while not stop.is_set():
                    try:
                        sock = socket.create_connection(address)
                        rfile = sock.makefile("r", encoding="utf-8")
                        backends.send_msg(sock, {
                            "type": "hello",
                            "version": backends.PROTOCOL_VERSION,
                        })
                        backends.recv_msg(rfile)  # take a cell
                    except OSError:
                        return  # the sweep is over and the listener gone
                    rfile.close()  # really close the fd: the coordinator
                    sock.close()  # must see EOF, not a half-open socket

            threading.Thread(target=doomed_worker, daemon=True).start()
            try:
                with pytest.raises(
                    RuntimeError, match="retry budget 3 exhausted.*mid-cell"
                ):
                    run_sweep(tiny_jobs()[:1], cache=False, backend=backend)
            finally:
                stop.set()

    def test_protocol_version_mismatch_rejected(self):
        """An ancient worker is hung up on before it gets a cell, and the
        sweep goes on waiting: a good worker then finishes it."""
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            rejected = threading.Event()
            seen = []

            def ancient_worker():
                sock = socket.create_connection(backend.address)
                with sock:
                    backends.send_msg(sock, {"type": "hello", "version": -1})
                    sock.settimeout(10)
                    seen.append(sock.recv(4096))  # EOF: b""
                rejected.set()

            def good_worker_after_rejection():
                assert rejected.wait(timeout=20)
                start_inprocess_worker(backend.address)

            threading.Thread(target=ancient_worker, daemon=True).start()
            threading.Thread(target=good_worker_after_rejection,
                             daemon=True).start()
            results = run_sweep(tiny_jobs()[:1], cache=False, backend=backend)
        assert seen == [b""]  # closed without a job or a bye
        assert dumps(results) == dumps(
            run_sweep(tiny_jobs()[:1], jobs=1, cache=False)
        )

    def test_needs_workers_or_listen(self):
        with pytest.raises(ValueError, match="listen address"):
            DistributedBackend()

    def test_connect_worker_survives_multiple_sweeps(self, spawn_worker):
        """A --connect worker redials after each sweep, so one worker
        serves a whole multi-sweep (e.g. ``figures --listen``) session
        and exits cleanly once the coordinator's listener closes."""
        serial = run_sweep(tiny_jobs(), jobs=1, cache=False)
        with DistributedBackend(listen="127.0.0.1:0") as backend:
            host, port = backend.address
            proc = spawn_worker("--connect", f"{host}:{port}", "--no-cache")
            first = run_sweep(tiny_jobs(), cache=False, backend=backend)
            second = run_sweep(tiny_jobs(), cache=False, backend=backend)
        assert dumps(first) == dumps(serial)
        assert dumps(second) == dumps(serial)
        assert proc.wait(timeout=30) == 0  # listener closed -> clean exit
        assert proc.stdout.read().count("served 3 cell(s)") == 2

    def test_connect_worker_exits_cleanly_on_reset_before_first_sweep(self):
        """A coordinator that accepts the dial and then goes away before
        any sweep resets the connection under the worker's hello: the
        worker logs it and exits 0, like a refused redial."""
        server = socket.create_server(("127.0.0.1", 0))
        host, port = server.getsockname()[:2]

        def accept_then_reset():
            sock, _peer = server.accept()
            select.select([sock], [], [], 10.0)  # the hello has arrived
            # Linger 0: close() sends RST instead of FIN.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
            server.close()

        thread = threading.Thread(target=accept_then_reset, daemon=True)
        thread.start()
        out = io.StringIO()
        assert worker_mod.run_worker(connect=f"{host}:{port}", retries=1,
                                     out=out) == 0
        thread.join(timeout=10)
        assert "served" not in out.getvalue()


class TestWorkerProtocol:
    def _handshake(self):
        coord, worker_side = socket.socketpair()
        thread = threading.Thread(
            target=worker_mod.serve_connection, args=(worker_side,), daemon=True
        )
        thread.start()
        rfile = coord.makefile("r", encoding="utf-8")
        hello = backends.recv_msg(rfile)
        assert hello["type"] == "hello"
        assert hello["version"] == backends.PROTOCOL_VERSION
        return coord, rfile, thread

    def test_bad_cell_reports_error_and_survives(self):
        coord, rfile, thread = self._handshake()
        backends.send_msg(coord, {"type": "job", "id": 1, "workload": "nope",
                                  "variant": "Base-CSSD", "params": {}})
        reply = backends.recv_msg(rfile)
        assert reply["ok"] is False
        assert "unknown workload" in reply["error"]
        # The worker survives a failed cell and serves the next one.
        job = SweepJob.make("bc", "DRAM-Only", records_per_thread=R)
        message = {"type": "job", "id": 2}
        message.update(backends.job_to_wire(job))
        backends.send_msg(coord, message)
        reply = backends.recv_msg(rfile)
        assert reply["ok"] is True
        assert reply["result"]["workload"] == "bc"
        backends.send_msg(coord, {"type": "bye"})
        thread.join(timeout=10)
        coord.close()

    def test_unexpected_message_type_reported(self):
        coord, rfile, thread = self._handshake()
        backends.send_msg(coord, {"type": "gossip", "id": 7})
        reply = backends.recv_msg(rfile)
        assert reply["ok"] is False
        assert "gossip" in reply["error"]
        backends.send_msg(coord, {"type": "bye"})
        thread.join(timeout=10)
        coord.close()

    def test_wire_resolves_records_on_coordinator(self, monkeypatch):
        """A worker host's REPRO_RECORDS must never change what a shipped
        cell simulates: the coordinator resolves it into the wire form."""
        monkeypatch.setenv("REPRO_RECORDS", "77")
        job = SweepJob.make("bc", "Base-CSSD")  # no explicit records
        key_on_coordinator = job.key()
        wire = json.loads(json.dumps(backends.job_to_wire(job)))
        assert wire["params"]["records_per_thread"] == 77
        monkeypatch.setenv("REPRO_RECORDS", "9999")  # the "worker host"
        rebuilt = backends.job_from_wire(wire)
        assert rebuilt.kwargs()["records_per_thread"] == 77
        assert rebuilt.key() == key_on_coordinator

    def test_wire_round_trip_preserves_job(self):
        job = SweepJob.make("ycsb-b", "skybyte-full", records_per_thread=R,
                            ssd_overrides={"prefetch_depth": 0}, seed=7)
        rebuilt = backends.job_from_wire(
            json.loads(json.dumps(backends.job_to_wire(job)))
        )
        assert rebuilt == job
        assert rebuilt.key() == job.key()


@pytest.mark.skipif(worker_mod._FORK_CTX is None,
                    reason="preemption needs the fork start method")
class TestWorkerPreemption:
    """A cell the coordinator gave up on must stop *executing* on the
    worker -- not just stop being awaited (the distributed-path bugfix:
    a timed-out cell used to burn the worker slot to completion)."""

    def _handshake(self, monkeypatch, heartbeat_path):
        """serve_connection in a thread, with cells that heartbeat
        forever instead of simulating (fork inherits the patch)."""
        real_execute = worker_mod._execute_job

        def hanging_execute(job):
            if job.workload == "bc":  # the cell under test hangs...
                while True:
                    heartbeat_path.write_text(str(time.monotonic()))
                    time.sleep(0.02)
            return real_execute(job)  # ...any other cell is normal

        monkeypatch.setattr(worker_mod, "_execute_job", hanging_execute)
        coord, worker_side = socket.socketpair()
        thread = threading.Thread(
            target=worker_mod.serve_connection, args=(worker_side,),
            daemon=True,
        )
        thread.start()
        rfile = coord.makefile("r", encoding="utf-8")
        assert backends.recv_msg(rfile)["type"] == "hello"
        return coord, rfile, thread

    def _send_job(self, coord, seq, workload):
        job = SweepJob.make(workload, "Base-CSSD", records_per_thread=R)
        message = {"type": "job", "id": seq, "key": job.key()}
        message.update(backends.job_to_wire(job))
        backends.send_msg(coord, message)

    def _assert_heartbeat_stops(self, path, within=10.0):
        """The hanging child beats every 20ms; silence for 0.5s after a
        kill means it is gone (and stays gone)."""
        deadline = time.monotonic() + within
        while time.monotonic() < deadline:
            before = path.read_text() if path.exists() else ""
            time.sleep(0.5)
            after = path.read_text() if path.exists() else ""
            if before == after:
                return
        raise AssertionError("cell kept executing after preemption")

    def test_cancel_kills_cell_and_frees_the_slot(self, tmp_path,
                                                  monkeypatch):
        beat = tmp_path / "beat"
        coord, rfile, thread = self._handshake(monkeypatch, beat)
        self._send_job(coord, 1, "bc")
        deadline = time.monotonic() + 10
        while not beat.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert beat.exists(), "hanging cell never started"
        backends.send_msg(coord, {"type": "cancel", "id": 1})
        self._assert_heartbeat_stops(beat)
        # No reply is owed for the cancelled cell, and the slot is
        # immediately usable: the next (healthy) cell completes.
        self._send_job(coord, 2, "ycsb")
        reply = backends.recv_msg(rfile)
        assert reply["id"] == 2 and reply["ok"] is True
        assert reply["result"]["workload"] == "ycsb"
        backends.send_msg(coord, {"type": "bye"})
        thread.join(timeout=10)
        assert not thread.is_alive()
        coord.close()

    def test_coordinator_hangup_kills_cell(self, tmp_path, monkeypatch):
        beat = tmp_path / "beat"
        coord, rfile, thread = self._handshake(monkeypatch, beat)
        self._send_job(coord, 1, "bc")
        deadline = time.monotonic() + 10
        while not beat.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert beat.exists(), "hanging cell never started"
        # A coordinator crash is an EOF, not a polite cancel.  SHUT_RDWR
        # (not close) because the forked cell child holds a dup of the
        # worker-side fd until _cell_child drops it.
        coord.shutdown(socket.SHUT_RDWR)
        thread.join(timeout=10)
        assert not thread.is_alive()
        self._assert_heartbeat_stops(beat)
        coord.close()

    def test_orphaned_cell_child_releases_the_connection(self, monkeypatch):
        """A SIGKILLed worker's cell child must not hold the coordinator
        connection open: the coordinator retries the cell only once it
        reads EOF.  The child inherits the worker's ``makefile`` reader,
        which kept the descriptor alive through a plain ``sock.close()``."""
        monkeypatch.setattr(worker_mod, "_execute_job",
                            lambda job: time.sleep(30))
        coord, worker_side = socket.socketpair()
        rfile = worker_side.makefile("r", encoding="utf-8")
        job = SweepJob.make("bc", "Base-CSSD", records_per_thread=R)
        message = {"type": "job", "id": 1}
        message.update(backends.job_to_wire(job))
        parent_conn, child_conn = worker_mod._FORK_CTX.Pipe(duplex=False)
        proc = worker_mod._FORK_CTX.Process(
            target=worker_mod._cell_child,
            args=(child_conn, message, worker_side), daemon=True,
        )
        proc.start()
        try:
            child_conn.close()
            # The worker parent dies: its reader and socket go away.
            rfile.close()
            worker_side.close()
            coord.settimeout(1.0)
            assert coord.recv(1) == b""  # EOF, not a timeout
        finally:
            proc.kill()
            proc.join(timeout=5)
            parent_conn.close()
            coord.close()

    def test_timed_out_cell_gets_a_cancel_message(self):
        """Coordinator side of the fix: abandoning a cell on timeout
        sends ``cancel`` before the retry, so a real worker can kill
        the stale attempt."""
        policy = CellPolicy(cell_timeout=0.5, retry_budget=3)
        with DistributedBackend(listen="127.0.0.1:0", policy=policy) as backend:
            cancelled = threading.Event()
            stalled = threading.Event()

            def stalling_worker():
                sock = socket.create_connection(backend.address)
                rfile = sock.makefile("r", encoding="utf-8")
                backends.send_msg(
                    sock, {"type": "hello",
                           "version": backends.PROTOCOL_VERSION}
                )
                job_msg = backends.recv_msg(rfile)
                assert job_msg["type"] == "job"
                stalled.set()
                # Stall the cell but keep listening, like a real worker
                # whose child is simulating: the coordinator's timeout
                # must deliver a cancel for this exact cell.
                note = backends.recv_msg(rfile)
                if note and note.get("type") == "cancel" \
                        and note.get("id") == job_msg["id"]:
                    cancelled.set()

            def good_worker_after_stall():
                assert stalled.wait(timeout=20)
                start_inprocess_worker(backend.address)

            threading.Thread(target=stalling_worker, daemon=True).start()
            threading.Thread(target=good_worker_after_stall,
                             daemon=True).start()
            results = run_sweep(tiny_jobs()[:1], cache=False, backend=backend)
            assert cancelled.wait(timeout=10), \
                "timeout abandoned the cell without sending cancel"
        assert dumps(results) == dumps(
            run_sweep(tiny_jobs()[:1], jobs=1, cache=False)
        )
