"""Pluggable sweep execution backends (local / threaded / distributed).

:func:`~repro.experiments.orchestrator.run_sweep` separates *what* to
simulate (the deduplicated list of pending cells) from *where* it runs.
A backend receives the pending ``(key, SweepJob)`` cells plus a
``finish(key, result)`` callback and must invoke the callback exactly
once per cell, always from the caller's thread:

* :class:`LocalProcessBackend` -- a ``ProcessPoolExecutor`` over
  ``jobs`` workers; with one worker (or one cell) it runs in-process.
  This is the default and reproduces the pre-backend behaviour exactly.
* :class:`ThreadBackend` -- a ``ThreadPoolExecutor``.  The simulator is
  pure Python so threads do not add CPU parallelism, but they skip
  process spawn/import costs, which wins for tiny smoke sweeps.
* :class:`DistributedBackend` -- fans cells out to worker processes
  (possibly on other hosts) over a newline-delimited TCP/JSON protocol.
  The coordinator listens (``listen=``) and workers dial in with
  ``python -m repro worker --connect HOST:PORT`` (see
  :mod:`repro.experiments.worker`), joining or leaving at any time.

Fault tolerance on the distributed backend is governed by a per-cell
:class:`CellPolicy`: each cell attempt has a configurable timeout
(``REPRO_CELL_TIMEOUT``), a cell is retried on failure up to a bounded
retry budget (``REPRO_RETRY_BUDGET``) before the sweep fails with a
clear error, and a worker that keeps failing cells is quarantined (no
further cells) for the rest of the sweep.

Every backend funnels results through ``RunResult.to_dict()`` /
``from_dict()`` -- the same lossless serialization the result cache
uses -- so results are byte-identical no matter where a cell ran.

Environment knobs: ``REPRO_BENCH_BACKEND`` selects the default backend
(``local``, ``thread``, ``serial``, or ``distributed:[HOST:]PORT``, the
address a coordinator listens on), and ``REPRO_CELL_TIMEOUT`` /
``REPRO_RETRY_BUDGET`` the reliability policy.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.experiments.runner import RunResult, default_records
from repro.obs import REGISTRY, get_logger
from repro.obs.spans import SpanContext, current_context

if TYPE_CHECKING:  # pragma: no cover - import cycle is runtime-lazy
    from repro.experiments.orchestrator import SweepJob

JOBS_ENV = "REPRO_JOBS"
BACKEND_ENV = "REPRO_BENCH_BACKEND"
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"
RETRY_BUDGET_ENV = "REPRO_RETRY_BUDGET"

#: Bumped on incompatible wire changes; coordinator and workers refuse
#: to talk across versions instead of desynchronizing mid-sweep.
PROTOCOL_VERSION = 1

log = get_logger("backends")

PendingCell = Tuple[str, "SweepJob"]
FinishFn = Callable[[str, RunResult], None]
BackendLike = Union["SweepBackend", str, None]


def default_jobs() -> int:
    """Worker count when a sweep does not specify one (REPRO_JOBS, min 1)."""
    try:
        return max(1, int(os.environ.get(JOBS_ENV, "1")))
    except ValueError:
        return 1


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
    def from_env(cls) -> "CellPolicy":
        """REPRO_CELL_TIMEOUT (seconds; unset/0 = unlimited) and
        REPRO_RETRY_BUDGET (attempts; default 3)."""
        try:
            timeout: Optional[float] = float(
                os.environ.get(CELL_TIMEOUT_ENV, "0") or "0")
        except ValueError:
            timeout = 0.0
        try:
            budget = max(1, int(os.environ.get(RETRY_BUDGET_ENV, "3") or "3"))
        except ValueError:
            budget = 3
        return cls(cell_timeout=timeout if timeout and timeout > 0 else None,
                   retry_budget=budget)

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


def _drain_pool(pool, pending: Sequence[PendingCell], finish: FinishFn) -> None:
    """Submit every cell to an executor, finishing them as they land."""
    from repro.experiments import orchestrator as orch

    futures = {
        pool.submit(orch._execute_job_dict, job): key for key, job in pending
    }
    not_done = set(futures)
    while not_done:
        done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
        for future in done:
            finish(futures[future], RunResult.from_dict(future.result()))


class LocalProcessBackend(SweepBackend):
    """Today's default: a process pool on this host (serial when jobs=1)."""

    name = "local"

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = max(1, int(jobs if jobs is not None else default_jobs()))

    def describe(self) -> str:
        return f"local[jobs={self.jobs}]"

    def run(self, pending: Sequence[PendingCell], finish: FinishFn) -> None:
        from repro.experiments import orchestrator as orch

        if self.jobs == 1 or len(pending) <= 1:
            for key, job in pending:
                finish(key, orch._execute_job(job))
            return
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(pending))) as pool:
            _drain_pool(pool, pending, finish)


class ThreadBackend(SweepBackend):
    """A thread pool: no spawn/import cost, ideal for tiny smoke sweeps.

    Each job still round-trips through ``to_dict``/``from_dict`` so the
    result invariants match the process and distributed paths.
    """

    name = "thread"

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = max(1, int(jobs if jobs is not None else default_jobs()))

    def describe(self) -> str:
        return f"thread[jobs={self.jobs}]"

    def run(self, pending: Sequence[PendingCell], finish: FinishFn) -> None:
        with ThreadPoolExecutor(max_workers=min(self.jobs, len(pending))) as pool:
            _drain_pool(pool, pending, finish)


class DistributedBackend(SweepBackend):
    """Fan cells out to ``python -m repro worker --connect`` processes.

    The coordinator binds ``listen`` (port 0 picks a free one; see
    :attr:`address`) and workers dial in, at any time: a worker that
    joins mid-sweep takes cells from the shared queue the moment its
    hello arrives, and a sweep started with no workers waits for the
    first one.  The listener stays open across :meth:`run` calls, so a
    worker dismissed after one sweep redials into the next
    (``repro figures --listen``, ``repro serve --listen``).

    One connection thread per worker keeps a single cell in flight on
    that worker.  Failures are governed by the per-cell
    :class:`CellPolicy` (``policy=``, default
    :meth:`CellPolicy.from_env`): a connection that dies mid-cell, a
    worker that replies with an error, and an attempt that exceeds
    ``cell_timeout`` all consume one unit of that cell's retry budget
    and the cell is requeued for another worker; a cell whose budget is
    exhausted fails the sweep with its failure history.  A worker that
    accumulates ``quarantine_after`` failed attempts is quarantined --
    it gets no further cells and each redial is dismissed -- so one
    sick host cannot eat every retry.  All ``finish`` callbacks happen
    on the thread that called :meth:`run`, exactly once per cell -- the
    per-cell progress contract ``run_sweep`` exposes holds here like on
    the local backends.

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

    def _serve_connection(self, sock, label, job_q, events, quarantined,
                          done) -> None:
        """One worker connection: feed it cells until the sweep is done.

        An idle connection polls the queue rather than hanging up the
        moment it looks empty -- a cell failing elsewhere may be
        requeued at any time until ``done`` is set, and this worker
        must be around to absorb it (that is the rebalancing half of
        the retry story).  A failure mid-cell reports the cell in the
        ``down`` event (the run loop owns retry accounting, so
        requeueing happens there).

        Quarantine is keyed on a *stable* worker identity -- the peer
        host plus the pid from the worker's hello -- not the connection
        label: a worker reconnects from a fresh ephemeral port after
        every dismissal, and must not re-enter with a clean slate.
        """
        current: Optional[PendingCell] = None
        worker_id = label
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
                if done.is_set():
                    send_msg(sock, {"type": "bye"})
                    break
                try:
                    current = job_q.get(timeout=0.2)
                except queue.Empty:
                    continue
                if worker_id in quarantined:
                    # Charging a failure quarantines *before* requeueing
                    # the cell, so this re-check reliably keeps a just-
                    # quarantined worker from grabbing its own retry.
                    job_q.put(current)
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
        job_q: "queue.Queue[PendingCell]" = queue.Queue()
        for cell in pending:
            job_q.put(cell)
        events: "queue.Queue[tuple]" = queue.Queue()
        threads: List[threading.Thread] = []
        # Set once every cell has finished (or the sweep failed): the
        # accept loop stops and idle connections dismiss their workers
        # with "bye".
        done = threading.Event()
        # Shared with connection threads: a quarantined worker takes no
        # further cells (checked before each hand-out).
        quarantined: Set[str] = set()

        def accept_loop() -> None:
            listener.settimeout(0.2)
            while not done.is_set():
                try:
                    sock, peer = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                label = "%s:%d" % peer[:2]
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(sock, label, job_q, events, quarantined, done),
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
                job_q.put(cell_for_key[key])

            # No "every worker is gone" exit: the listener stays open,
            # so a sweep waits for the next worker to dial in.
            while remaining:
                event = events.get()
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
                else:  # "down"
                    _, label, worker_id, reason, cell = event
                    log.warning("worker_dropped", worker=label, reason=reason)
                    if cell is not None and cell[0] in remaining:
                        charge(cell[0], label, worker_id, reason)
        finally:
            done.set()
            accept_thread.join(timeout=2.0)
            for thread in threads:
                thread.join(timeout=2.0)


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

_BACKEND_NAMES = ("local", "thread", "serial", "distributed")


def resolve_backend(
    backend: BackendLike = None,
    jobs: Optional[int] = None,
    policy: Optional[CellPolicy] = None,
) -> SweepBackend:
    """Normalise a backend argument to a :class:`SweepBackend`.

    ``None`` consults ``REPRO_BENCH_BACKEND`` (default ``local``).
    Strings accept ``local``/``process``, ``thread``/``threads``,
    ``serial`` (local with one worker), and ``distributed:[HOST:]PORT``,
    which binds a coordinator on that address for workers to
    ``--connect`` to.  An explicit ``policy`` overrides the backend's
    cell policy, including on an already-built instance.
    """
    if isinstance(backend, SweepBackend):
        if policy is not None and hasattr(backend, "policy"):
            backend.policy = policy
        return backend
    if backend is None:
        spec = os.environ.get(BACKEND_ENV, "").strip() or "local"
    else:
        spec = str(backend).strip()
    name, _, rest = spec.partition(":")
    name = name.lower()
    if name in ("local", "process", "processes"):
        return LocalProcessBackend(jobs)
    if name in ("thread", "threads"):
        return ThreadBackend(jobs)
    if name == "serial":
        return LocalProcessBackend(1)
    if name == "distributed":
        return DistributedBackend(listen=rest.strip() or None, policy=policy)
    raise ValueError(
        f"unknown sweep backend {spec!r} (expected one of {', '.join(_BACKEND_NAMES)})"
    )
