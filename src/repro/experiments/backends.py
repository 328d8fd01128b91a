"""Pluggable sweep execution backends (local / distributed).

:func:`~repro.experiments.orchestrator.run_sweep` separates *what* to
simulate (the deduplicated list of pending cells) from *where* it runs.
A backend receives the pending ``(key, SweepJob)`` cells plus a
``finish(key, result)`` callback and must invoke the callback exactly
once per cell, always from the caller's thread:

* :class:`LocalProcessBackend` -- this host.  With one job it runs
  cells in process; with ``jobs`` > 1 it runs them in up to ``jobs``
  :class:`~repro.experiments.worker.CellChild` processes, forked at
  first use and kept until :meth:`~SweepBackend.close`, so the trace
  and FTL-precondition memos carry from cell to cell and from sweep to
  sweep.  A sweep given no backend builds one, of width
  ``REPRO_JOBS``, and closes it when it ends.
* :class:`DistributedBackend` -- fans cells out to worker processes
  (possibly on other hosts) over a newline-delimited TCP/JSON protocol.
  The coordinator listens (``listen=``) and workers dial in with
  ``python -m repro worker --connect HOST:PORT`` (see
  :mod:`repro.experiments.worker`), joining or leaving at any time.
  Each worker runs its cells in a ``CellChild`` of its own.

Both hand cells to their runners from one :class:`CellQueue`, which
groups them by trace key so each runner synthesizes few workloads'
traces.

Fault tolerance on the distributed backend is governed by a per-cell
:class:`CellPolicy`: each cell attempt has a configurable timeout
(``REPRO_CELL_TIMEOUT``), a cell is retried on failure up to a bounded
retry budget (``REPRO_RETRY_BUDGET``) before the sweep fails with a
clear error, and a worker that keeps failing cells is quarantined (no
further cells) for the rest of the sweep.  A local cell that fails, or
whose child dies, fails the sweep at once.

Every out-of-process cell comes back through ``RunResult.to_dict()`` /
``from_dict()`` -- the same lossless serialization the result cache
uses -- so results are byte-identical no matter where a cell ran.

A backend a caller builds and hands to a sweep stays open for it to
reuse and close.  Environment knobs supply only constructor defaults:
``REPRO_JOBS`` the local backend's width (a positive integer; default
1), and ``REPRO_CELL_TIMEOUT`` / ``REPRO_RETRY_BUDGET`` the distributed
backend's reliability policy.
"""

from __future__ import annotations

import bisect
import json
import queue
import select
import socket
import threading
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Hashable, List, Optional,
                    Sequence, Set, Tuple, Union)

from repro.experiments.runner import (RunResult, cell_trace_key,
                                     default_records, env_number)
from repro.obs import REGISTRY, get_logger
from repro.obs.spans import SpanContext, current_context

if TYPE_CHECKING:  # pragma: no cover - import cycle is runtime-lazy
    from repro.experiments.orchestrator import SweepJob
    from repro.experiments.worker import CellChild

JOBS_ENV = "REPRO_JOBS"
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"
RETRY_BUDGET_ENV = "REPRO_RETRY_BUDGET"

#: Bumped on incompatible wire changes; coordinator and workers refuse
#: to talk across versions instead of desynchronizing mid-sweep.
PROTOCOL_VERSION = 1

log = get_logger("backends")

PendingCell = Tuple[str, "SweepJob"]
FinishFn = Callable[[str, RunResult], None]

#: Seconds a distributed sweep waits, once every worker it has seen is
#: quarantined and none is running a cell, for a new worker to join
#: before it fails: long enough for a dial already in flight.
QUARANTINE_GRACE_S = 2.0


def default_jobs() -> int:
    """A local backend's width when its caller gives none: REPRO_JOBS
    (a positive integer), or 1."""
    return env_number(JOBS_ENV, 1)


@dataclass(frozen=True)
class CellPolicy:
    """Per-cell reliability policy for the distributed backend.

    ``cell_timeout``: seconds a single attempt may take on a worker
    before the coordinator abandons the connection and retries the cell
    elsewhere (None = unlimited; attempts on a cold worker include
    import/spawn time, so budget generously).

    ``retry_budget``: total attempts per cell -- failed replies, dead
    connections and timeouts all consume it.  Exhausting it fails the
    sweep with an error naming the cell and its failure history; work
    already cached/finished is kept (a rerun resumes from the cache).

    ``quarantine_after``: failed attempts attributed to one worker
    connection/address before that worker is quarantined: it gets no
    further cells and is never re-dialed during this sweep.  Defaults
    to the retry budget so a lone worker can still burn a cell's whole
    budget (exhaustion, not a silent hang, must end that story).
    """

    cell_timeout: Optional[float] = None
    retry_budget: int = 3
    quarantine_after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.retry_budget < 1:
            raise ValueError("retry_budget must be >= 1")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            object.__setattr__(self, "cell_timeout", None)
        if self.quarantine_after is None:
            object.__setattr__(self, "quarantine_after", self.retry_budget)

    @classmethod
    def from_env(cls, cell_timeout: Optional[float] = None,
                 retry_budget: Optional[int] = None) -> "CellPolicy":
        """The policy with each value not given taken from
        REPRO_CELL_TIMEOUT (seconds; unset/0 = unlimited) or
        REPRO_RETRY_BUDGET (attempts; default 3)."""
        if cell_timeout is None:
            cell_timeout = env_number(CELL_TIMEOUT_ENV, 0.0, 0, float)
        if retry_budget is None:
            retry_budget = env_number(RETRY_BUDGET_ENV, 3)
        return cls(cell_timeout=cell_timeout, retry_budget=retry_budget)

    def describe(self) -> str:
        timeout = "inf" if self.cell_timeout is None else f"{self.cell_timeout:g}s"
        return f"timeout={timeout},budget={self.retry_budget}"


# ---------------------------------------------------------------------------
# Wire protocol helpers (shared by DistributedBackend and the worker)
# ---------------------------------------------------------------------------


def parse_address(spec: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT``) to a ``(host, port)`` pair.

    Raises ``ValueError`` for a missing port or one outside 0-65535.
    """
    if isinstance(spec, tuple):
        host, port = spec
    else:
        host, _, port = str(spec).strip().rpartition(":")
        if not port.isdigit():
            raise ValueError(f"bad address {spec!r} (expected HOST:PORT)")
    if not 0 <= int(port) <= 65535:
        raise ValueError(f"bad address {spec!r} (port outside 0-65535)")
    return (host or "127.0.0.1", int(port))


def send_msg(sock: socket.socket, payload: Dict[str, object]) -> None:
    """One protocol message: compact JSON, newline-terminated."""
    sock.sendall(json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n")


def recv_msg(rfile) -> Optional[Dict[str, object]]:
    """The next message from a socket's text file wrapper, or None on EOF."""
    line = rfile.readline()
    if not line:
        return None
    return json.loads(line)


def job_to_wire(job: "SweepJob") -> Dict[str, object]:
    """JSON-safe form of a job; :func:`job_from_wire` reverses it.

    Environment-dependent defaults are resolved *here*, on the
    coordinator: a worker host with a different ``REPRO_RECORDS`` must
    never change what a shipped cell simulates (it would silently break
    the byte-identical guarantee and poison the shared cache under the
    coordinator's key).
    """
    params = job.kwargs()
    params.setdefault("records_per_thread", default_records())
    return {
        "workload": job.workload,
        "variant": job.variant,
        "params": params,
    }


def job_from_wire(data: Dict[str, object]) -> "SweepJob":
    from repro.experiments.orchestrator import SweepJob

    return SweepJob.make(data["workload"], data["variant"], **data["params"])


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


class CellQueue:
    """A sweep's pending cells, grouped by trace key, for idle runners.

    A runner runs one cell at a time: a worker of
    :class:`DistributedBackend` or a kept ``CellChild`` of
    :class:`LocalProcessBackend`.  :meth:`take` gives an idle runner, in
    order:

    1. a pending cell of the trace key it ran last (its memo holds
       those traces);
    2. else a cell of the first key, in submit order, that no busy
       runner holds;
    3. else a cell of the key with the most pending cells.

    The key is :func:`~repro.experiments.runner.cell_trace_key`, the
    trace memo's own, so a runner that takes a whole group synthesizes
    its traces once.  Cells of a key keep submit order; a ``.sbt``
    replay has no key and is never held, so keyless cells go in plain
    FIFO.  A cell put back after failing on a runner returns to its
    place in its group and goes to that runner again only when no other
    runner waiting in :meth:`take` could take it.  Results do not depend
    on the order: a cell simulates the same wherever it runs.
    """

    def __init__(self, pending: Sequence[PendingCell]) -> None:
        self._cond = threading.Condition()
        self._index = {key: i for i, (key, _job) in enumerate(pending)}
        self._trace = {key: cell_trace_key(job.workload, job.variant,
                                           **job.kwargs())
                       for key, job in pending}
        self._groups: Dict[Optional[Hashable], List[PendingCell]] = {}
        for cell in pending:
            self._groups.setdefault(self._trace[cell[0]], []).append(cell)
        self._size = len(pending)
        #: Cell key -> runners it failed on.
        self._failed_on: Dict[str, Set[Hashable]] = {}
        #: Busy runner -> trace key of the cell it runs.
        self._running: Dict[Hashable, Optional[Hashable]] = {}
        #: Runner -> trace key it ran last.
        self._last: Dict[Hashable, Hashable] = {}
        self._waiting: Set[Hashable] = set()
        self._closed = False

    def __len__(self) -> int:
        with self._cond:
            return self._size

    def running(self) -> bool:
        """Whether a runner holds a cell it took."""
        with self._cond:
            return bool(self._running)

    def take(self, runner: Hashable) -> Optional[PendingCell]:
        """The next cell for idle ``runner``, waiting while none is free
        for it; None once the queue is closed."""
        with self._cond:
            self._running.pop(runner, None)
            self._waiting.add(runner)
            try:
                while not self._closed:
                    cell = self._pick(runner)
                    if cell is not None:
                        return cell
                    self._cond.wait()
                return None
            finally:
                self._waiting.discard(runner)
                # A runner that deferred a cell to this one looks again.
                self._cond.notify_all()

    def put(self, cell: PendingCell, failed_on: Optional[Hashable] = None
            ) -> None:
        """Return a taken cell to its group, at its submit position;
        ``failed_on`` is the runner it failed on."""
        with self._cond:
            if failed_on is not None:
                self._failed_on.setdefault(cell[0], set()).add(failed_on)
            group = self._groups.setdefault(self._trace[cell[0]], [])
            bisect.insort(group, cell, key=lambda c: self._index[c[0]])
            self._size += 1
            self._cond.notify_all()

    def leave(self, runner: Hashable) -> None:
        """``runner`` takes no more cells (its connection ended)."""
        with self._cond:
            self._running.pop(runner, None)
            self._cond.notify_all()

    def close(self) -> None:
        """Wake every runner waiting in :meth:`take`; each gets None."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def _first(self, tkey: Optional[Hashable]) -> int:
        return self._index[self._groups[tkey][0][0]]

    def _pick(self, runner: Hashable) -> Optional[PendingCell]:
        # Trace key -> position of its first cell that did not fail on
        # this runner.
        choices: Dict[Optional[Hashable], int] = {}
        for tkey, group in self._groups.items():
            for at, (key, _job) in enumerate(group):
                if runner not in self._failed_on.get(key, ()):
                    choices[tkey] = at
                    break
        if choices:
            tkey = self._last.get(runner)
            if tkey is None or tkey not in choices:
                held = set(self._running.values())
                free = [k for k in choices if k is None or k not in held]
                if free:
                    tkey = min(free, key=self._first)
                else:
                    tkey = max(choices, key=lambda k: (len(self._groups[k]),
                                                       -self._first(k)))
            return self._pop(runner, tkey, choices[tkey])
        if not self._groups:
            return None
        # Every pending cell failed on this runner.  Leave the first to a
        # waiting runner it did not fail on; without one, retry it here
        # (a lone worker spends the cell's budget rather than hang).
        tkey = min(self._groups, key=self._first)
        key = self._groups[tkey][0][0]
        if any(other != runner and other not in self._failed_on[key]
               for other in self._waiting):
            return None
        return self._pop(runner, tkey, 0)

    def _pop(self, runner: Hashable, tkey: Optional[Hashable],
             at: int) -> PendingCell:
        group = self._groups[tkey]
        cell = group.pop(at)
        if not group:
            del self._groups[tkey]
        self._size -= 1
        self._running[runner] = tkey
        if tkey is not None:
            self._last[runner] = tkey
        return cell


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class SweepBackend:
    """Executes pending sweep cells.

    Subclasses implement :meth:`run`, calling ``finish(key, result)``
    exactly once per pending cell *from the calling thread* (so cache
    writes and progress callbacks need no locking upstream).
    """

    name = "abstract"

    def run(self, pending: Sequence[PendingCell], finish: FinishFn) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name

    def close(self) -> None:
        """Release any long-lived resources (listening sockets)."""

    def __enter__(self) -> "SweepBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LocalProcessBackend(SweepBackend):
    """This host: in process when ``jobs`` is 1, else kept cell children.

    With ``jobs`` > 1 every cell runs in one of up to ``jobs``
    :class:`~repro.experiments.worker.CellChild` processes, forked when
    a sweep first needs them and kept until :meth:`close`.  A cell that
    raises, or a child that dies, fails the sweep with the cell's
    traceback or the child's exit code; cells still in flight are then
    killed with their children, and the next sweep forks fresh ones.
    Hosts without ``fork`` run every cell in process.
    """

    name = "local"

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = default_jobs() if jobs is None else int(jobs)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, not {self.jobs}")
        self._children: List["CellChild"] = []
        #: Orders :meth:`close` against a fork in :meth:`run`, which
        #: runs on a sweep's driver thread: no child outlives a close.
        self._lock = threading.Lock()
        self._closed = False

    def describe(self) -> str:
        return f"local[jobs={self.jobs}]"

    def run(self, pending: Sequence[PendingCell], finish: FinishFn) -> None:
        from repro.experiments import worker
        from repro.experiments.orchestrator import _execute_job

        cells = CellQueue(pending)
        if self.jobs == 1 or worker._FORK_CTX is None:
            while cells:
                key, job = cells.take("in-process")
                finish(key, _execute_job(job))
            return
        with self._lock:
            while len(self._children) < min(self.jobs, len(pending)):
                self._children.append(worker.CellChild())
            idle = list(self._children)
        busy: Dict["CellChild", str] = {}
        try:
            while cells or busy:
                while cells and idle:
                    child = idle.pop()
                    key, job = cells.take(child)
                    with self._lock:
                        if self._closed:
                            raise RuntimeError("local backend is closed")
                        child.send(job_to_wire(job))
                    busy[child] = key
                for child in select.select(list(busy), [], [])[0]:
                    key = busy.pop(child)
                    reply = child.recv()
                    if not reply["ok"]:
                        raise RuntimeError(
                            f"cell {key} failed: {reply['error']}")
                    idle.append(child)
                    finish(key, RunResult.from_dict(reply["result"]))
        finally:
            for child in busy:
                child.close()

    def close(self) -> None:
        """Kill the kept children; a closed backend forks no more."""
        with self._lock:
            self._closed = True
            children, self._children = self._children, []
        for child in children:
            child.close()


class DistributedBackend(SweepBackend):
    """Fan cells out to ``python -m repro worker --connect`` processes.

    The coordinator binds ``listen`` (port 0 picks a free one; see
    :attr:`address`) and workers dial in, at any time: a worker that
    joins mid-sweep takes cells the moment its hello arrives, and a
    sweep started with no workers waits for the first one.  The
    listener stays open across :meth:`run` calls, so a worker dismissed
    after one sweep redials into the next (``repro figures --listen``,
    ``repro serve --listen``).

    One connection thread per worker keeps a single cell in flight on
    that worker, taken from the sweep's :class:`CellQueue`: a worker
    gets another cell of the trace key it ran last, else the first key
    no other worker holds, else a cell of the largest group, so each
    worker's cell child synthesizes few workloads' traces and the
    groups run side by side.  Failures are governed by the per-cell
    :class:`CellPolicy` (``policy=``, default
    :meth:`CellPolicy.from_env`): a connection that dies mid-cell, a
    worker that replies with an error, and an attempt that exceeds
    ``cell_timeout`` all consume one unit of that cell's retry budget
    and the cell is requeued, for another worker when one is waiting; a
    cell whose budget is exhausted fails the sweep with its failure
    history.  A worker that accumulates ``quarantine_after`` failed
    attempts is quarantined -- it gets no further cells and each redial
    is dismissed -- so one sick host cannot eat every retry.  Once every
    worker the sweep has seen is quarantined and none is running a
    cell, a sweep that no new worker joins within
    :data:`QUARANTINE_GRACE_S` fails with every unfinished cell's
    history.  All ``finish`` callbacks happen on the thread that called
    :meth:`run`, exactly once per cell -- the per-cell progress contract
    ``run_sweep`` exposes holds here as on the local backend.

    Workers may answer a cell from their own result cache
    (``--cache-dir``); such replies are tallied in
    :attr:`remote_cache_hits` (lifetime counter) so sweeps can report
    how much of the work the worker-side cache absorbed.
    """

    name = "distributed"

    def __init__(
        self,
        listen: Optional[Union[str, Tuple[str, int]]] = None,
        connect_timeout: float = 30.0,
        policy: Optional[CellPolicy] = None,
    ) -> None:
        if listen is None:
            raise ValueError(
                "distributed backend needs a listen address: pass "
                "--listen [HOST:]PORT and start workers with "
                "repro worker --connect HOST:PORT"
            )
        self.connect_timeout = connect_timeout
        self.policy = policy if policy is not None else CellPolicy.from_env()
        self.remote_cache_hits = 0
        #: Trace context of the thread that called :meth:`run`; each
        #: shipped cell carries a child of it so worker-side spans
        #: correlate back to the coordinator (``docs/OBSERVABILITY.md``).
        self._trace_parent: Optional[SpanContext] = None
        self._listener: Optional[socket.socket] = socket.create_server(
            parse_address(listen))

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The (host, port) workers ``--connect`` to (None once closed)."""
        return self._listener.getsockname()[:2] if self._listener else None

    def describe(self) -> str:
        parts = []
        if self.address:
            parts.append(f"listen={self.address[0]}:{self.address[1]}")
        parts.append(self.policy.describe())
        return f"distributed[{','.join(parts)}]"

    def close(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    # -- coordinator internals ---------------------------------------------

    def _serve_connection(self, sock, label, cells, events, quarantined,
                          done) -> None:
        """One worker connection: feed it cells until the sweep is done.

        An idle connection waits in :meth:`CellQueue.take` rather than
        hanging up the moment the queue looks empty -- a cell failing
        elsewhere may be requeued at any time until the sweep ends, and
        this worker must be around to absorb it (that is the rebalancing
        half of the retry story).  The end of the sweep closes the
        queue, so the worker is dismissed at once.  The connection
        reports ``joined`` after the hello and ``left`` when it ends; a
        failure mid-cell reports the cell in the ``down`` event (the run
        loop owns retry accounting, so requeueing happens there).

        Quarantine is keyed on a *stable* worker identity -- the peer
        host plus the pid from the worker's hello -- not the connection
        label: a worker reconnects from a fresh ephemeral port after
        every dismissal, and must not re-enter with a clean slate.  The
        same identity names the worker in the queue.
        """
        current: Optional[PendingCell] = None
        worker_id = label
        joined = False
        try:
            rfile = sock.makefile("r", encoding="utf-8")
            sock.settimeout(self.connect_timeout)
            hello = recv_msg(rfile)
            if not hello or hello.get("type") != "hello":
                raise ConnectionError(f"worker {label} sent no hello")
            if hello.get("version") != PROTOCOL_VERSION:
                raise ConnectionError(
                    f"worker {label} speaks protocol "
                    f"{hello.get('version')!r}, not {PROTOCOL_VERSION}"
                )
            if hello.get("pid"):
                worker_id = f"{label.rsplit(':', 1)[0]}#pid{hello['pid']}"
            events.put(("joined", worker_id))
            joined = True
            # Per-attempt budget from the cell policy (None = unlimited).
            sock.settimeout(self.policy.cell_timeout)
            seq = 0
            while True:
                if worker_id in quarantined:
                    # Pace the worker's reconnect spin before the
                    # dismissal (it will redial the moment we hang up).
                    done.wait(0.5)
                    send_msg(sock, {"type": "bye"})
                    break
                current = cells.take(worker_id)
                if current is None:  # the sweep is over
                    send_msg(sock, {"type": "bye"})
                    break
                if worker_id in quarantined:
                    # Charging a failure quarantines *before* requeueing
                    # the cell, so this re-check reliably keeps a just-
                    # quarantined worker from grabbing its own retry.
                    cells.put(current)
                    current = None
                    send_msg(sock, {"type": "bye"})
                    break
                key, job = current
                seq += 1
                message = {"type": "job", "id": seq, "key": key}
                message.update(job_to_wire(job))
                # Trace context rides as a sibling key: job_from_wire
                # reads only workload/variant/params, so old workers
                # ignore it and cache keys are untouched.
                parent = self._trace_parent
                cell_ctx = (parent.child() if parent is not None
                            else SpanContext.new_root())
                message["trace"] = cell_ctx.to_wire()
                send_msg(sock, message)
                try:
                    reply = recv_msg(rfile)
                except socket.timeout:
                    # Tell the worker to abort the cell before hanging
                    # up: without this the worker keeps simulating the
                    # abandoned cell to completion, burning its slot
                    # while the retry runs elsewhere.  Best-effort --
                    # the retry accounting below owns correctness.
                    try:
                        send_msg(sock, {"type": "cancel", "id": seq,
                                        "key": key})
                    except OSError:
                        pass
                    raise ConnectionError(
                        f"worker {label} exceeded the "
                        f"{self.policy.cell_timeout:g}s cell timeout"
                    ) from None
                if reply is None:
                    raise ConnectionError(f"worker {label} closed mid-cell")
                if reply.get("ok"):
                    events.put(
                        ("ok", key, reply["result"], bool(reply.get("cached")))
                    )
                else:
                    events.put(
                        ("fail", label, worker_id, current,
                         str(reply.get("error", "?")))
                    )
                current = None
        except Exception as exc:  # noqa: BLE001 - reported via the event queue
            events.put(("down", label, worker_id, repr(exc), current))
        finally:
            cells.leave(worker_id)
            if joined:
                events.put(("left", worker_id))
            try:
                sock.close()
            except OSError:
                pass

    def run(self, pending: Sequence[PendingCell], finish: FinishFn) -> None:
        if self._listener is None:
            raise RuntimeError("distributed backend is closed")
        listener = self._listener
        policy = self.policy
        # Connection threads start with a fresh contextvar context, so
        # the caller's trace context is captured here and handed to them.
        self._trace_parent = current_context()
        cells = CellQueue(pending)
        events: "queue.Queue[tuple]" = queue.Queue()
        threads: List[threading.Thread] = []
        # Set once every cell has finished (or the sweep failed).  The
        # accept loop wakes on ``wake_r`` and idle connections when the
        # queue closes, so the sweep ends with its last cell.
        done = threading.Event()
        wake_r, wake_w = socket.socketpair()
        # Shared with connection threads: a quarantined worker takes no
        # further cells (checked before each hand-out).
        quarantined: Set[str] = set()

        def accept_loop() -> None:
            # Non-blocking, so a dial that vanished between the select
            # and the accept cannot wedge the loop.
            listener.setblocking(False)
            while True:
                try:
                    ready, _, _ = select.select([listener, wake_r], [], [])
                    if wake_r in ready:
                        return
                    sock, peer = listener.accept()
                except (BlockingIOError, ConnectionAbortedError):
                    continue
                except (OSError, ValueError):
                    return  # the listener was closed under us
                label = "%s:%d" % peer[:2]
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(sock, label, cells, events, quarantined, done),
                    name=f"sweep-conn-{label}",
                    daemon=True,
                )
                thread.start()
                threads.append(thread)

        accept_thread = threading.Thread(
            target=accept_loop, name="sweep-accept", daemon=True
        )
        accept_thread.start()
        try:
            remaining = {key for key, _ in pending}
            cell_for_key: Dict[str, PendingCell] = {k: (k, j) for k, j in pending}
            failures: Dict[str, List[str]] = {}  # key -> attempt errors
            worker_failures: Dict[str, int] = {}
            seen: Set[str] = set()  # workers that sent a hello this sweep
            stuck_since: Optional[float] = None

            def charge(key: str, label: str, worker_id: str,
                       error: str) -> None:
                """One failed attempt: budget accounting + quarantine.

                Quarantining happens *before* the requeue, so the
                offender can never grab its own retry.
                """
                history = failures.setdefault(key, [])
                history.append(f"{label}: {error}")
                worker_failures[worker_id] = worker_failures.get(worker_id, 0) + 1
                if (worker_failures[worker_id] >= policy.quarantine_after
                        and worker_id not in quarantined):
                    quarantined.add(worker_id)
                    REGISTRY.counter(
                        "repro_worker_quarantine_total",
                        "workers quarantined mid-sweep",
                    ).inc()
                if len(history) >= policy.retry_budget:
                    raise RuntimeError(
                        f"cell {key} failed {len(history)} attempt(s), "
                        f"retry budget {policy.retry_budget} exhausted: "
                        f"{'; '.join(history)}"
                    )
                cells.put(cell_for_key[key], failed_on=worker_id)

            # With no worker seen yet the sweep waits: the listener stays
            # open for the next worker to dial in.
            while remaining:
                timeout = None
                if seen and seen <= quarantined and not cells.running():
                    if stuck_since is None:
                        stuck_since = time.monotonic()
                    timeout = stuck_since + QUARANTINE_GRACE_S - time.monotonic()
                    if timeout <= 0:
                        unfinished = "; ".join(
                            f"cell {key} ({cell_for_key[key][1].label()}): "
                            + " | ".join(failures.get(key, ["not attempted"]))
                            for key in cell_for_key if key in remaining)
                        raise RuntimeError(
                            f"every worker of this sweep is quarantined "
                            f"({', '.join(sorted(seen))}) and none is running "
                            f"a cell; {len(remaining)} cell(s) unfinished: "
                            f"{unfinished}")
                else:
                    stuck_since = None
                try:
                    event = events.get(timeout=timeout)
                except queue.Empty:
                    continue
                kind = event[0]
                if kind == "ok":
                    _, key, payload, was_cached = event
                    if key in remaining:
                        remaining.discard(key)
                        if was_cached:
                            self.remote_cache_hits += 1
                            REGISTRY.counter(
                                "repro_remote_cache_hits_total",
                                "sweep cells answered from a worker-side "
                                "result cache",
                            ).inc()
                        finish(key, RunResult.from_dict(payload))
                elif kind == "fail":
                    _, label, worker_id, cell, error = event
                    charge(cell[0], label, worker_id, f"worker error: {error}")
                elif kind == "down":
                    _, label, worker_id, reason, cell = event
                    log.warning("worker_dropped", worker=label, reason=reason)
                    if cell is not None and cell[0] in remaining:
                        charge(cell[0], label, worker_id, reason)
                elif kind == "joined":
                    seen.add(event[1])
                # "left" only wakes the loop to look at the workers again.
        finally:
            done.set()
            wake_w.close()  # EOF: ``wake_r`` turns readable for good
            cells.close()
            accept_thread.join(timeout=2.0)
            for thread in threads:
                thread.join(timeout=2.0)
            wake_r.close()
