"""TCP/JSON sweep worker: the remote half of the distributed backend.

``python -m repro worker`` turns any host that can import this package
into sweep capacity.  A worker speaks the newline-delimited JSON
protocol of :mod:`repro.experiments.backends`: it announces itself with
a ``hello``, then answers each ``job`` message with a ``result`` until
the coordinator says ``bye`` (or the connection closes).

A worker dials a listening coordinator (``--connect HOST:PORT``; a
``repro sweep|figures|report --listen`` run or a ``repro serve
--listen`` service), retrying briefly so workers can be started before
the coordinator.  After each sweep the worker redials, so a coordinator
running several sweeps keeps its workers; when the coordinator closes
its listener the redial is refused and the worker exits cleanly.

Workers execute cells through exactly the same
:func:`~repro.experiments.orchestrator._execute_job` path as the local
backends, so results are byte-identical wherever a cell runs.  Passing
``cache`` (``--cache-dir``) lets workers consult and feed a
content-addressed result cache.  Workers on one host may share a
directory (its sqlite index is safe across processes); sqlite WAL needs
shared memory, so remote workers keep their own ``--cache-dir`` rather
than one on a network filesystem, and the coordinator counts their
answers as ``remote_cache_hits``.

A cell that raises on the worker is reported back (``ok: false`` plus
the traceback) and costs the cell one attempt of its retry budget on
the coordinator; the worker itself survives and keeps serving.

On POSIX hosts each cell runs in a forked child process so it is
**preemptible**: when the coordinator abandons the cell (its
``--cell-timeout`` elapsed, or it hung up), the worker kills the child
and frees the slot immediately instead of simulating the doomed cell
to completion.  The coordinator signals this with a ``cancel`` wire
message before closing; an EOF mid-cell means the same thing.  Hosts
without ``fork`` fall back to in-process execution (no preemption).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import select
import socket
import sys
import time
import traceback
from typing import Dict, Optional, TextIO, Tuple

from repro.experiments import backends
from repro.experiments.orchestrator import ResultCache, _execute_job
from repro.obs import get_logger, span
from repro.obs.spans import SpanContext, activate, deactivate

log = get_logger("worker")

#: Fork start-method context, or None where unavailable (Windows).
#: Fork (not spawn) so a cell child inherits the live module state --
#: cheap to start, and test monkeypatching carries into the child.
_FORK_CTX = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods()
    else None
)


@contextlib.contextmanager
def _cell_scope(message: Dict[str, object], job):
    """Adopt the coordinator's trace context around one cell.

    The coordinator ships a per-cell ``trace`` context alongside each
    job (see :meth:`DistributedBackend._serve_connection`); activating
    it makes this worker's ``worker.cell`` span -- and anything logged
    under it -- a child of the coordinator's sweep span, so one trace id
    follows the cell across the wire.  A missing/malformed context just
    starts a fresh root here.
    """
    ctx = SpanContext.from_wire(message.get("trace"))
    token = activate(ctx) if ctx is not None else None
    try:
        with span("worker.cell", workload=job.workload, variant=job.variant):
            yield
    finally:
        if token is not None:
            deactivate(token)


def _cell_child(conn, message: Dict[str, object],
                sock: Optional[socket.socket] = None) -> None:
    """Forked child: execute one wire-format job, ship the reply dict."""
    if sock is not None:
        # Drop the inherited coordinator connection: were the worker
        # parent SIGKILLed mid-cell, this orphan's dup would otherwise
        # hold the connection open and the coordinator would not see
        # EOF (and so not retry the cell) until the orphan finished.
        # ``sock.close()`` is not enough: the parent's ``makefile``
        # reader, inherited by the fork, keeps the descriptor alive.
        try:
            os.close(sock.detach())
        except OSError:
            pass
    try:
        job = backends.job_from_wire(message)
        result = _execute_job(job)
        conn.send({"ok": True, "result": result.to_dict()})
    except Exception:  # noqa: BLE001 - the parent relays it to the coordinator
        conn.send({"ok": False, "error": traceback.format_exc()})
    finally:
        conn.close()


def _execute_preemptible(
    sock: socket.socket, rfile, message: Dict[str, object]
) -> Tuple[str, Optional[Dict[str, object]]]:
    """Run one cell in a killable child, watching the coordinator.

    Returns ``("reply", payload)`` when the cell finished (``payload``
    has ``ok``/``result`` or ``ok``/``error``), ``("cancelled", None)``
    when the coordinator sent ``cancel`` (no reply owed -- it already
    gave up on this cell), or ``("eof", None)`` when the coordinator
    hung up (the connection is over).  The child is terminated on every
    non-reply path.

    Selecting on the raw socket next to the buffered reader is safe
    *here* because the protocol is strictly request/response: at this
    point the coordinator's ``job`` line has been consumed and it sends
    nothing further until our reply -- except a ``cancel``/hang-up,
    which is exactly what the select is watching for.
    """
    assert _FORK_CTX is not None
    parent_conn, child_conn = _FORK_CTX.Pipe(duplex=False)
    proc = _FORK_CTX.Process(
        target=_cell_child, args=(child_conn, message, sock), daemon=True
    )
    proc.start()
    child_conn.close()
    try:
        while True:
            ready, _, _ = select.select([sock, parent_conn], [], [])
            if parent_conn in ready:
                try:
                    payload = parent_conn.recv()
                except EOFError:
                    proc.join(timeout=5.0)
                    payload = {
                        "ok": False,
                        "error": "cell child exited without a result "
                                 f"(exitcode {proc.exitcode})",
                    }
                return ("reply", payload)
            if sock in ready:
                note = backends.recv_msg(rfile)
                if note is None:
                    return ("eof", None)
                if note.get("type") in ("cancel", "bye"):
                    return ("cancelled", None)
                # Anything else mid-cell is a protocol violation from a
                # confused coordinator; keep simulating, it can only
                # recover by cancelling or hanging up.
    finally:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        if proc.is_alive():  # a child ignoring SIGTERM gets SIGKILL
            proc.kill()
            proc.join(timeout=5.0)
        parent_conn.close()


def serve_connection(
    sock: socket.socket,
    cache: Optional[ResultCache] = None,
) -> Tuple[int, int]:
    """Serve one coordinator connection to completion.

    Returns ``(cells_served, cells_answered_from_cache)``.
    """
    rfile = sock.makefile("r", encoding="utf-8")
    backends.send_msg(
        sock,
        {"type": "hello", "version": backends.PROTOCOL_VERSION, "pid": os.getpid()},
    )
    served = 0
    from_cache = 0
    while True:
        message = backends.recv_msg(rfile)
        if message is None or message.get("type") == "bye":
            return served, from_cache
        reply = {"type": "result", "id": message.get("id")}
        if message.get("type") != "job":
            reply.update(
                ok=False,
                error=f"unexpected message type {message.get('type')!r}",
            )
            backends.send_msg(sock, reply)
            continue
        try:
            job = backends.job_from_wire(message)
            with _cell_scope(message, job):
                cached = cache.get(job.key()) if cache is not None else None
                if cached is not None:
                    from_cache += 1
                    reply.update(ok=True, cached=True,
                                 result=cached.to_dict())
                elif _FORK_CTX is not None:
                    outcome, payload = _execute_preemptible(
                        sock, rfile, message)
                    if outcome == "eof":
                        return served, from_cache
                    if outcome == "cancelled":
                        # The coordinator abandoned this cell; it expects
                        # no reply and has retried elsewhere.  The slot is
                        # free again -- serve whatever comes next.
                        continue
                    if payload.get("ok"):
                        result = backends.RunResult.from_dict(
                            payload["result"])
                        if cache is not None:
                            cache.put(job.key(), result)
                        reply.update(ok=True, cached=False,
                                     result=payload["result"])
                    else:
                        reply.update(ok=False,
                                     error=str(payload.get("error")))
                else:
                    result = _execute_job(job)
                    if cache is not None:
                        cache.put(job.key(), result)
                    reply.update(ok=True, cached=False,
                                 result=result.to_dict())
        except Exception:  # noqa: BLE001 - the coordinator decides what's fatal
            reply.update(ok=False, error=traceback.format_exc())
        served += 1
        backends.send_msg(sock, reply)


def run_worker(
    connect: str,
    cache: Optional[ResultCache] = None,
    retries: int = 40,
    retry_delay: float = 0.25,
    once: bool = False,
    out: TextIO = sys.stdout,
) -> int:
    """Entry point behind ``python -m repro worker``; returns an exit code.

    Dials the coordinator at ``connect`` (``retries`` attempts,
    ``retry_delay`` apart) and serves it; ``once`` exits after the first
    connection instead of redialing (handy for smoke tests and CI).
    """
    address = backends.parse_address(connect)
    connections = 0
    while True:
        # Before the first connection the coordinator may not be up yet,
        # so dial patiently; afterwards, a refused connection means the
        # coordinator closed its listener -- a clean exit.  (Between two
        # sweeps the listener is still open: the redial parks in its
        # backlog and serves the next sweep, so one worker survives a
        # whole ``figures`` run.)
        budget = max(1, retries) if connections == 0 else 1
        sock = None
        last_error: Optional[OSError] = None
        for _attempt in range(budget):
            try:
                sock = socket.create_connection(address)
                break
            except OSError as exc:
                last_error = exc
                if _attempt + 1 < budget:
                    time.sleep(retry_delay)
        if sock is None:
            if connections:
                return 0  # coordinator is gone; work is done
            log.error("coordinator_unreachable",
                      address=f"{address[0]}:{address[1]}",
                      error=str(last_error))
            return 1
        try:
            with sock:
                served, from_cache = serve_connection(sock, cache)
        except OSError as exc:
            # A reset after a successful dial means the coordinator is
            # gone: it closed before its first sweep, or the redial
            # parked in its backlog when it closed.  Clean exit, same as
            # a refused redial.
            log.info("coordinator_closed",
                     address=f"{address[0]}:{address[1]}",
                     error=str(exc))
            return 0
        connections += 1
        print(
            f"worker: served {served} cell(s) ({from_cache} from cache) "
            f"for {address[0]}:{address[1]}",
            file=out,
            flush=True,
        )
        if once:
            return 0
