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

On POSIX hosts cells run in one long-lived forked child process
(:class:`CellChild`), fed over a pipe, so each cell is **preemptible**:
when the coordinator abandons the cell (its ``--cell-timeout``
elapsed, or it hung up), the worker kills the child and frees the slot
immediately instead of simulating the doomed cell to completion.  The
coordinator signals this with a ``cancel`` wire message before
closing; an EOF mid-cell means the same thing.  The next cell forks a
fresh child.  Otherwise the child serves cell after cell, across
connections, keeping the trace and precondition memos an in-process
sweep shares between the variants of one workload.  Hosts without
``fork`` fall back to in-process execution (no preemption).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import select
import socket
import stat
import sys
import threading
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


def _release_inherited_sockets(keep: int) -> None:
    """Point every inherited socket but ``keep`` at ``/dev/null``.

    A fork inherits every connection its parent has open -- in a
    threaded parent, other threads' too -- and a long-lived child would
    hold each one open for its whole life: a coordinator would not see
    EOF when a worker is SIGKILLed (and so not retry its cell), and a
    killed worker's pipe would never read EOF here.  ``dup2`` rather
    than ``close`` keeps each descriptor number taken, so a stale socket
    object collected later in this child closes ``/dev/null``, not a
    descriptor the child has since reused.
    """
    for fd_dir in ("/proc/self/fd", "/dev/fd"):
        try:
            fds = [int(name) for name in os.listdir(fd_dir)]
            break
        except OSError:
            continue
    else:
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd in (keep, devnull):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:
                pass  # the listing's own descriptor, closed by now
    finally:
        os.close(devnull)


def _cell_child(conn) -> None:
    """Forked child: execute wire-format jobs from ``conn`` until the
    worker goes away, shipping one reply dict per job.

    The child first lets go of every inherited socket, the coordinator
    connection and the worker's end of this pipe included.  A SIGKILLed
    worker then turns into an EOF at the child's next read, or a broken
    pipe at its next reply, and the orphan exits instead of serving on.
    """
    _release_inherited_sockets(keep=conn.fileno())
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        try:
            job = backends.job_from_wire(message)
            reply = {"ok": True, "result": _execute_job(job).to_dict()}
        except Exception:  # noqa: BLE001 - the parent relays it to the coordinator
            reply = {"ok": False, "error": traceback.format_exc()}
        try:
            conn.send(reply)
        except OSError:
            return


class CellChild:
    """A long-lived, killable cell process: where every cell that runs
    out of process runs.

    Forked at the first :meth:`send` and fed wire-format jobs over a
    duplex pipe, so the trace and FTL-precondition memos carry from cell
    to cell as in an in-process sweep.  A worker keeps one across
    connections, a :class:`~repro.experiments.backends.LocalProcessBackend`
    up to ``jobs`` across sweeps; each ``select``s on it (:meth:`fileno`)
    next to whatever else it waits for.  It is killed, and forked afresh
    at the next cell, only when its owner gives up on a cell or it dies.
    """

    def __init__(self) -> None:
        assert _FORK_CTX is not None
        self._proc = None
        self._conn = None
        #: A local backend's close may race its sweep's own cleanup;
        #: whichever close comes second waits until the child is reaped.
        self._closing = threading.Lock()

    @property
    def pid(self) -> Optional[int]:
        """The live child's pid (None before the first cell)."""
        return self._proc.pid if self._proc is not None else None

    def fileno(self) -> int:
        """The reply pipe's descriptor: readable once the cell is done."""
        return self._conn.fileno()

    def send(self, message: Dict[str, object]) -> None:
        """Start one wire-format job in the child, forking it first if
        there is none (or it died between cells).  A child that is gone
        by now shows as a readable pipe, reported by :meth:`recv`."""
        if self._proc is not None and not self._proc.is_alive():
            self.close()  # it died between cells
        if self._proc is None:
            parent_end, child_end = _FORK_CTX.Pipe()
            self._proc = _FORK_CTX.Process(
                target=_cell_child, args=(child_end,), daemon=True)
            self._proc.start()
            child_end.close()
            self._conn = parent_end
        try:
            self._conn.send(message)
        except OSError:
            pass

    def recv(self) -> Dict[str, object]:
        """The cell's reply: ``ok`` plus ``result`` or ``error``.  A child
        that died mid-cell is reaped and reported by its exit code."""
        try:
            return self._conn.recv()
        except (EOFError, OSError):
            self._proc.join(timeout=5.0)
            exitcode = self._proc.exitcode
            self.close()
            return {"ok": False,
                    "error": "cell child exited without a result "
                             f"(exitcode {exitcode})"}

    def close(self) -> None:
        """Kill the child, if any; the next cell forks a fresh one."""
        with self._closing:
            proc, conn = self._proc, self._conn
            if proc is None:
                return
            self._proc = self._conn = None
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():  # a child ignoring SIGTERM gets SIGKILL
                proc.kill()
                proc.join(timeout=5.0)
            conn.close()


def _run_in_child(
    sock: socket.socket, rfile, child: CellChild, message: Dict[str, object]
) -> Optional[Dict[str, object]]:
    """Run one cell in ``child``, watching the coordinator meanwhile.

    Returns the child's reply (``ok`` plus ``result`` or ``error``), or
    None when the coordinator sent ``cancel`` or hung up: it owes no
    reply and the child is killed.  Selecting on the raw socket next to
    the buffered reader is safe *here* because the protocol is strictly
    request/response: the coordinator sends nothing mid-cell but a
    ``cancel`` or a hang-up, which is what the select watches for.
    """
    child.send(message)
    try:
        while True:
            ready, _, _ = select.select([sock, child], [], [])
            if child in ready:
                return child.recv()
            note = backends.recv_msg(rfile)
            if note is None or note.get("type") in ("cancel", "bye"):
                child.close()
                return None
            # Anything else mid-cell is a protocol violation from a
            # confused coordinator; keep simulating, it can only
            # recover by cancelling or hanging up.
    except BaseException:
        child.close()
        raise


def serve_connection(
    sock: socket.socket,
    cache: Optional[ResultCache] = None,
    child: Optional[CellChild] = None,
) -> Tuple[int, int]:
    """Serve one coordinator connection to completion.

    Cells run in ``child``, the worker's long-lived :class:`CellChild`;
    without one (and with ``fork``), in a child of this connection's
    own, killed when the connection ends.

    Returns ``(cells_served, cells_answered_from_cache)``.
    """
    if child is None and _FORK_CTX is not None:
        with contextlib.closing(CellChild()) as own:
            return serve_connection(sock, cache, own)
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
                elif child is not None:
                    payload = _run_in_child(sock, rfile, child, message)
                    if payload is None:
                        # The coordinator abandoned this cell and expects
                        # no reply; the slot is free again -- serve what
                        # comes next (after a hang-up, the EOF ends it).
                        continue
                    if payload.get("ok"):
                        if cache is not None:
                            cache.put(job.key(), backends.RunResult.from_dict(
                                payload["result"]))
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
    # One cell child for the worker's whole life, across connections.
    child = CellChild() if _FORK_CTX is not None else None
    try:
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
                    served, from_cache = serve_connection(sock, cache, child)
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
    finally:
        if child is not None:
            child.close()
