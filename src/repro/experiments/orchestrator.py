"""Parallel experiment orchestration with on-disk result caching.

Every figure of the paper's evaluation is a sweep over independent
(workload, variant, parameter) cells, so the whole evaluation is
embarrassingly parallel.  This module is the single funnel those sweeps
go through:

* :class:`SweepJob` -- a hashable, picklable description of one
  :func:`~repro.experiments.runner.run_workload` call;
* :func:`run_sweep` -- executes a list of jobs on a pluggable
  :class:`~repro.experiments.backends.SweepBackend` (in process, kept
  local cell processes, or distributed TCP workers) while preserving
  input order, deduplicating identical cells, and consulting the
  result cache, optionally handing each finished cell to a callback;
* :func:`stream_sweep` -- the streaming core ``run_sweep`` is built on:
  an iterator of :class:`CellUpdate` events, one per distinct cell, in
  completion order -- cache-served cells first, then simulated cells as
  the backend finishes them.  Long sweeps can be observed (and their
  reports rewritten) in real time instead of at barrier boundaries;
* :class:`ResultCache` -- a JSON-per-result store under ``.repro_cache/``
  keyed by a stable hash of the fully *resolved* simulation config plus
  workload, variant, trace length and time limit, so a re-run only
  simulates missing cells and a config change can never serve stale
  data.  The store has a real storage layer: a sqlite ``index.sqlite3``
  with LRU bookkeeping, an optional size cap with least-recently-used
  eviction, and lifetime hit/miss/put/evict counters, so many
  processes on one host (the CLI, ``repro serve``, local workers) can
  share one cache directory concurrently.  sqlite WAL needs shared
  memory, so a cache directory is not shared over a network
  filesystem: remote workers keep their own ``--cache-dir``.

Determinism: each job builds its own :class:`~repro.sim.system.System`
from its own seeds, so a parallel sweep is numerically identical to the
serial loop it replaces -- worker results round-trip through
``RunResult.to_dict()`` (lossless for finite floats) whether they come
from a local cell process, a remote worker, the cache, or an
in-process run.

A sweep's execution settings are two objects its caller builds: the
backend (none: a :class:`~repro.experiments.backends.LocalProcessBackend`
of width ``REPRO_JOBS``, built and closed per call) and the cache
(none: no cache).  The cache's own knobs are ``REPRO_CACHE_DIR``
(location, default ``.repro_cache``) and ``REPRO_CACHE_MAX_BYTES``
(size cap; 0 or unset means unbounded).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import queue
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.backends import LocalProcessBackend, SweepBackend
from repro.experiments.runner import (
    DEFAULT_SCALE,
    RunResult,
    env_number,
    resolve_run,
    run_workload,
)
from repro.obs import REGISTRY, span
from repro.scenarios.library import find_scenario
from repro.scenarios.tracefile import file_sha256
from repro.variants import canonical_variant
from repro.workloads.suites import canonical_workload

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"
DEFAULT_CACHE_DIR = ".repro_cache"

#: Bump when the serialized result format or simulator semantics change
#: incompatibly; old cache entries then miss instead of deserializing
#: garbage.
CACHE_VERSION = 1


class _Frozen(tuple):
    """A mapping frozen into sorted ``(key, value)`` pairs, so a job
    holding it hashes; :func:`_thaw` turns it back into a dict."""


def _freeze(value: object) -> object:
    if isinstance(value, dict):
        return _Frozen(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def _thaw(value: object) -> object:
    if isinstance(value, _Frozen):
        return {k: _thaw(v) for k, v in value}
    return value


@dataclass(frozen=True)
class SweepJob:
    """One (workload, variant, parameters) simulation cell.

    ``params`` holds :func:`run_workload` keyword arguments as a sorted
    tuple of pairs so jobs are hashable (for dedup) and serializable
    (:func:`~repro.experiments.backends.job_to_wire`).  Build via
    :meth:`make`, which canonicalises names, drops ``None`` values and
    freezes mapping values (``ssd_overrides``, ``device_model``) at
    every depth.
    """

    workload: str
    variant: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, workload: str, variant: str, **params: object) -> "SweepJob":
        clean = {k: _freeze(v) for k, v in params.items() if v is not None}
        return cls(
            workload=cls._canonical_name(workload, "trace" in clean),
            variant=canonical_variant(variant),
            params=tuple(sorted(clean.items())),
        )

    @staticmethod
    def _canonical_name(workload: str, is_trace: bool) -> str:
        """Table I name, scenario registry name, or (for tracefile
        replay cells, whose workload field is just a label) any name."""
        try:
            return canonical_workload(workload)
        except KeyError:
            scenario = find_scenario(workload)
            if scenario is not None:
                return scenario.name
            if is_trace:
                return workload
            raise

    def kwargs(self) -> Dict[str, object]:
        """The run_workload keyword arguments this job encodes."""
        return {k: _thaw(v) for k, v in self.params}

    def key(self) -> str:
        """Stable cache key for this job (hex digest).

        Hashes the *resolved* config -- scale, REPRO_RECORDS and thread
        defaults are applied first -- so two spellings of the same cell
        share a key and any config difference produces a new one.
        """
        kw = self.kwargs()
        config, records = resolve_run(self.workload, self.variant, **kw)
        payload = {
            "cache_version": CACHE_VERSION,
            "workload": self.workload,
            "variant": self.variant,
            "records_per_thread": records,
            "scale": kw.get("scale", DEFAULT_SCALE),
            "max_ns": kw.get("max_ns"),
            "config": config.to_dict(),
        }
        if kw.get("trace"):
            # Replay cells key on the file *content*: a regenerated
            # trace under the same path must not serve stale results.
            payload["trace_sha256"] = file_sha256(str(kw["trace"]))
        else:
            scenario = find_scenario(self.workload)
            if scenario is not None and scenario.name == self.workload:
                # Scenario cells key on the full scenario definition, so
                # editing a registered scenario invalidates its entries.
                payload["scenario"] = scenario.to_dict()
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:40]

    def label(self) -> str:
        return f"{self.workload}/{self.variant}"


def sweep_product(
    workloads: Sequence[str],
    variants: Sequence[str],
    **params: object,
) -> List[SweepJob]:
    """The full workload x variant grid, row-major (variant fastest)."""
    return [
        SweepJob.make(wl, variant, **params)
        for wl in workloads
        for variant in variants
    ]


#: Connections a forked child inherited and must never close (see
#: :class:`_Connection`).
_INHERITED_CONNECTIONS: List[sqlite3.Connection] = []


class _Connection(sqlite3.Connection):
    """A connection that a forked child never closes.

    A sqlite connection is only freed by the cyclic garbage collector
    (it and its statement cache reference each other), so a cell child
    (:class:`~repro.experiments.worker.CellChild`) forked from a
    threaded parent -- ``repro serve`` runs every job, and every HTTP
    request, on its own thread -- may collect
    connections the parent's dead threads left behind.  Closing one
    there calls into sqlite, whose mutexes another parent thread may
    have held at the moment of the fork: the child deadlocks.  The
    finalizer therefore resurrects inherited connections instead; the
    child exits without ever touching them.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._owner_pid = os.getpid()

    def __del__(self) -> None:
        if os.getpid() != self._owner_pid:
            _INHERITED_CONNECTIONS.append(self)


def _connect(path: Union[str, Path]) -> sqlite3.Connection:
    """A WAL-mode autocommit connection (transactions are explicit).

    WAL persists in the file, so only the connection that creates it
    switches the journal mode; every later one just reads it.  The
    switch takes an exclusive lock that sqlite does not wait for under
    the busy timeout: a second first-opener racing it (a ``/metrics``
    scrape against a job's first cache read) gets "database is locked"
    at once, so it retries until the winner's switch has landed.
    """
    con = sqlite3.connect(str(path), timeout=30.0, isolation_level=None,
                          factory=_Connection)
    con.execute("PRAGMA synchronous=NORMAL")
    con.execute("PRAGMA busy_timeout=30000")
    deadline = time.monotonic() + 30.0
    while con.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
        try:
            con.execute("PRAGMA journal_mode=WAL")
        except sqlite3.OperationalError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.001)
    return con


@contextlib.contextmanager
def _txn(con: sqlite3.Connection) -> Iterator[sqlite3.Connection]:
    """One IMMEDIATE transaction: the write lock is taken up front, so
    read-modify-write sequences are atomic across processes."""
    con.execute("BEGIN IMMEDIATE")
    try:
        yield con
    except BaseException:
        con.execute("ROLLBACK")
        raise
    con.execute("COMMIT")


class ResultCache:
    """On-disk result store: one JSON file per simulated cell.

    Layout: ``<root>/<key>.json`` data entries plus
    ``<root>/index.sqlite3`` (LRU bookkeeping and lifetime stats, a WAL
    sqlite database).  ``<root>`` defaults to ``.repro_cache/``
    (override with ``REPRO_CACHE_DIR``) and ``<key>`` is
    :meth:`SweepJob.key`.

    Data files hold ``RunResult.to_dict()`` output and are written
    atomically (tmp file + rename), so a sweep killed mid-write never
    leaves a corrupt entry -- unreadable entries are treated as misses.
    Every get/put is one sqlite transaction touching only the affected
    row, so many processes and threads on one host can share a
    directory (one connection per thread).  sqlite WAL needs shared
    memory, so the directory must not live on a network filesystem:
    remote workers keep their own ``--cache-dir``.  Instances must not
    be shared across ``fork()`` -- each process opens its own.

    ``max_bytes`` (default ``REPRO_CACHE_MAX_BYTES``; 0 = unbounded)
    caps the total data size: every :meth:`put` evicts
    least-recently-used entries until the cap holds.  ``hits`` /
    ``misses`` / ``evictions`` count this object's lifetime;
    :meth:`stats` additionally reports the directory-wide lifetime
    counters kept in the index.
    """

    INDEX_DB = "index.sqlite3"

    _COUNTERS = ("hits", "misses", "evictions", "puts")

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root)
        if max_bytes is None:
            max_bytes = env_number(CACHE_MAX_BYTES_ENV, 0, 0)
        self.max_bytes = max(0, int(max_bytes))
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._tls = threading.local()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- connection / schema ---------------------------------------------

    def _db(self) -> sqlite3.Connection:
        con = getattr(self._tls, "con", None)
        if con is None:
            self.root.mkdir(parents=True, exist_ok=True)
            con = _connect(self.root / self.INDEX_DB)
            con.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(k TEXT PRIMARY KEY, v INTEGER NOT NULL)"
            )
            con.execute(
                "CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY, "
                "size INTEGER NOT NULL, tick INTEGER NOT NULL)"
            )
            con.execute(
                "CREATE INDEX IF NOT EXISTS entries_lru ON entries (tick, key)"
            )
            with _txn(con):
                fresh = con.execute(
                    "INSERT OR IGNORE INTO meta (k, v) VALUES ('tick', 0)"
                ).rowcount > 0
                con.executemany(
                    "INSERT OR IGNORE INTO meta (k, v) VALUES (?, 0)",
                    [(k,) for k in self._COUNTERS],
                )
                if fresh:
                    # A new index over a directory that already holds
                    # blobs (its index lost, or blobs copied in) adopts
                    # them, so the next put's eviction sees them.
                    self._reconcile_rows(con)
            self._tls.con = con
        return con

    # -- row helpers (call inside a transaction) -------------------------

    @staticmethod
    def _bump(con: sqlite3.Connection, field: str, n: int = 1) -> None:
        con.execute("UPDATE meta SET v = v + ? WHERE k = ?", (n, field))

    @staticmethod
    def _next_tick(con: sqlite3.Connection) -> int:
        con.execute("UPDATE meta SET v = v + 1 WHERE k = 'tick'")
        return con.execute("SELECT v FROM meta WHERE k='tick'").fetchone()[0]

    def _touch_row(self, con: sqlite3.Connection, key: str, size: int) -> None:
        con.execute(
            "INSERT OR REPLACE INTO entries (key, size, tick) VALUES (?, ?, ?)",
            (key, size, self._next_tick(con)),
        )

    def _evict_rows(
        self,
        con: sqlite3.Connection,
        max_bytes: int,
        protect: Tuple[str, ...] = (),
    ) -> List[str]:
        """Drop LRU rows until the cap holds; returns the victims (the
        caller unlinks their blobs after commit)."""
        if max_bytes <= 0:
            return []
        total = con.execute(
            "SELECT COALESCE(SUM(size), 0) FROM entries"
        ).fetchone()[0]
        victims: List[str] = []
        for key, size in con.execute(
            "SELECT key, size FROM entries ORDER BY tick, key"
        ).fetchall():
            if total <= max_bytes:
                break
            if key in protect:
                continue
            victims.append(key)
            total -= size
        for key in victims:
            con.execute("DELETE FROM entries WHERE key = ?", (key,))
        if victims:
            self._bump(con, "evictions", len(victims))
            self.evictions += len(victims)
        return victims

    def _reconcile_rows(self, con: sqlite3.Connection) -> None:
        """Make the rows agree with the directory (inside a txn).

        Rows whose data file vanished are dropped; stray data files
        (copied in, or left by a writer killed between its blob and its
        row) are adopted at tick 0, i.e. first in line for eviction.
        """
        for (key,) in con.execute("SELECT key FROM entries").fetchall():
            if not self.path_for(key).is_file():
                con.execute("DELETE FROM entries WHERE key = ?", (key,))
        for path in self._data_files():
            key = path.stem
            if not con.execute(
                "SELECT 1 FROM entries WHERE key = ?", (key,)
            ).fetchone():
                con.execute(
                    "INSERT INTO entries (key, size, tick) VALUES (?, ?, 0)",
                    (key, path.stat().st_size),
                )

    def _data_files(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        # A pre-sqlite version kept its index in ``index.json``; one
        # left behind is not a result.
        return sorted(
            p for p in self.root.glob("*.json") if p.name != "index.json"
        )

    def _write_blob(self, key: str, result: RunResult) -> int:
        """Atomically write one data entry; returns its size in bytes.

        The size comes from the payload, not a ``stat`` after the
        rename: a concurrent eviction may already have unlinked it.
        The temp name is unique per writing thread, not only per
        process: two threads writing one key must not rename each
        other's file away.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        final = self.path_for(key)
        tmp = final.with_name(
            f"{final.name}.tmp{os.getpid()}-{threading.get_ident()}")
        payload = json.dumps(result.to_dict(), separators=(",", ":")).encode("utf-8")
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, final)
        return len(payload)

    # -- public API ------------------------------------------------------

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None (counting hit/miss)."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            result = RunResult.from_dict(data)
            size = path.stat().st_size
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            REGISTRY.counter("repro_cache_misses_total",
                             "result-cache lookups that missed").inc()
            if self.root.is_dir():  # a miss never conjures the directory
                con = self._db()
                with _txn(con):
                    self._bump(con, "misses")
            return None
        self.hits += 1
        REGISTRY.counter("repro_cache_hits_total",
                         "result-cache lookups answered from disk").inc()
        con = self._db()
        with _txn(con):
            self._bump(con, "hits")
            # LRU: a hit refreshes recency -- but only while the blob
            # still exists, else a concurrent eviction between the read
            # above and this transaction would be resurrected as an
            # orphan row.
            if con.execute(
                "SELECT 1 FROM entries WHERE key = ?", (key,)
            ).fetchone() or path.is_file():
                self._touch_row(con, key, size)
        return result

    def put(self, key: str, result: RunResult) -> None:
        REGISTRY.counter("repro_cache_puts_total",
                         "results written to the cache").inc()
        size = self._write_blob(key, result)
        con = self._db()
        with _txn(con):
            if not self.path_for(key).is_file():
                # A concurrent eviction raced the blob away between the
                # write above and this transaction; restore it so the
                # row never points at a missing file.
                size = self._write_blob(key, result)
            self._bump(con, "puts")
            self._touch_row(con, key, size)
            # Never evict what was just written, even if it alone busts
            # the cap -- caching the current sweep beats strict caps.
            victims = self._evict_rows(con, self.max_bytes, protect=(key,))
        for victim in victims:
            with contextlib.suppress(OSError):
                self.path_for(victim).unlink()

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Evict LRU entries until the cache fits ``max_bytes``.

        Defaults to this cache's configured cap; returns the number of
        entries removed (0 when unbounded or when the directory does
        not exist).
        """
        target = self.max_bytes if max_bytes is None else max(0, int(max_bytes))
        if target <= 0 or not self.root.is_dir():
            return 0
        con = self._db()
        with _txn(con):
            self._reconcile_rows(con)
            victims = self._evict_rows(con, target)
        for victim in victims:
            with contextlib.suppress(OSError):
                self.path_for(victim).unlink()
        return len(victims)

    def stats(self) -> Dict[str, object]:
        """Directory-wide cache statistics (reconciled with the blobs).

        A directory that does not exist reads as an empty cache and is
        not created.
        """
        entries, size_bytes, counters = 0, 0, {}
        if self.root.is_dir():
            con = self._db()
            with _txn(con):
                self._reconcile_rows(con)
                entries, size_bytes = con.execute(
                    "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM entries"
                ).fetchone()
                counters = dict(
                    con.execute(
                        "SELECT k, v FROM meta WHERE k IN (?, ?, ?, ?)",
                        self._COUNTERS,
                    ).fetchall()
                )
        return {
            "root": str(self.root),
            "index": "sqlite",
            "entries": entries,
            "size_bytes": size_bytes,
            "max_bytes": self.max_bytes,
            **{field: counters.get(field, 0) for field in self._COUNTERS},
        }

    def entries(self) -> List[Path]:
        return self._data_files()

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._data_files())

    def clear(self) -> int:
        """Delete all cached results (and reset the index); returns count."""
        if not self.root.is_dir():
            return 0
        con = self._db()
        removed = 0
        with _txn(con):
            for path in self._data_files():
                with contextlib.suppress(OSError):
                    path.unlink()
                    removed += 1
            con.execute("DELETE FROM entries")
            con.executemany(
                "UPDATE meta SET v = 0 WHERE k = ?",
                [(k,) for k in ("tick",) + self._COUNTERS],
            )
        return removed

    def close(self) -> None:
        """Close this thread's index connection (reopened on next use)."""
        con = getattr(self._tls, "con", None)
        if con is not None:
            con.close()
            self._tls.con = None


def _execute_job(job: SweepJob) -> RunResult:
    with span("sweep.cell", workload=job.workload, variant=job.variant):
        return run_workload(job.workload, job.variant, **job.kwargs())


@dataclass(frozen=True)
class CellUpdate:
    """One completed sweep cell, as :func:`stream_sweep` yields them.

    ``positions`` are the indices in the caller's job list this cell
    fills (duplicates of one cell share an update); ``completed`` /
    ``total`` count *distinct* cells so consumers can render progress
    without recomputing the dedup.
    """

    job: SweepJob
    result: RunResult
    source: str  # "cache" or "run"
    positions: Tuple[int, ...]
    completed: int
    total: int


def stream_sweep(
    cells: Iterable[SweepJob],
    *,
    backend: Optional[SweepBackend] = None,
    cache: Optional[ResultCache] = None,
) -> Iterator[CellUpdate]:
    """Run a batch of cells, yielding each one **as it completes**.

    The streaming core under :func:`run_sweep`: cells are deduplicated
    and checked against ``cache`` (None: no cache) exactly the same way,
    but instead of a barrier the caller receives an iterator of
    :class:`CellUpdate` events in completion order -- cache-served cells
    first (before any simulation starts), then simulated cells as the
    backend delivers them.  Cache writes happen on the backend helper
    thread the moment a cell finishes, *before* its update is queued for
    the consumer -- so a consumer that crashes (or abandons the iterator
    early) never loses finished work: the cache already has it.

    The backend executes on a helper thread while the caller iterates;
    an error on any cell (or in the backend itself) is re-raised from
    the iterator after in-flight results drain.  ``backend`` stays open
    for its owner to reuse and close.  Without one, a
    :class:`~repro.experiments.backends.LocalProcessBackend` of width
    ``REPRO_JOBS`` is built here and closed when the iterator ends,
    however it ends, so no local cell process outlives the call:
    abandoning the iterator early kills the cells still in flight (an
    in-process cell finishes in the background, on the daemon helper
    thread).  Cells already finished are in the cache either way.
    """
    specs = list(cells)
    with contextlib.ExitStack() as owned:
        if backend is None:
            backend = owned.enter_context(LocalProcessBackend())
        yield from _stream_cells(specs, cache, backend)


def _stream_cells(
    specs: List[SweepJob],
    store: Optional[ResultCache],
    executor: SweepBackend,
) -> Iterator[CellUpdate]:
    """The body of :func:`stream_sweep`, on the backend it runs on."""

    # Deduplicate: one simulation per distinct cache key, results shared.
    key_order: List[str] = []
    positions: Dict[str, List[int]] = {}
    job_for_key: Dict[str, SweepJob] = {}
    for i, spec in enumerate(specs):
        key = spec.key()
        if key not in positions:
            positions[key] = []
            key_order.append(key)
            job_for_key[key] = spec
        positions[key].append(i)

    total = len(key_order)
    completed = 0
    pending: List[str] = []
    for key in key_order:
        cached = store.get(key) if store is not None else None
        if cached is not None:
            completed += 1
            REGISTRY.counter("repro_sweep_cells_total",
                             "completed sweep cells by source",
                             source="cache").inc()
            yield CellUpdate(
                job=job_for_key[key], result=cached, source="cache",
                positions=tuple(positions[key]), completed=completed,
                total=total,
            )
        else:
            pending.append(key)
    if not pending:
        return

    # The backend runs on a helper thread and reports each finished
    # cell through this queue.  "finish exactly once per cell, from the
    # thread that called run()" still holds -- that thread is the
    # helper, and its calls serialize through the queue.  The cache
    # write happens here in _finish (one sqlite transaction per put),
    # so finished cells are durable even if the consumer never drains
    # the queue.
    events: "queue.Queue[tuple]" = queue.Queue()

    def _finish(key: str, result: RunResult) -> None:
        if store is not None:
            store.put(key, result)
        events.put(("ok", key, result))

    def _drive() -> None:
        try:
            executor.run([(key, job_for_key[key]) for key in pending], _finish)
        except BaseException as exc:  # noqa: BLE001 - re-raised by the consumer
            events.put(("error", exc))
            return
        events.put(("end",))

    driver = threading.Thread(target=_drive, name="sweep-driver", daemon=True)
    driver.start()
    done = 0
    failure: Optional[BaseException] = None
    while done < len(pending):
        event = events.get()
        if event[0] == "ok":
            _, key, result = event
            done += 1
            completed += 1
            REGISTRY.counter("repro_sweep_cells_total",
                             "completed sweep cells by source",
                             source="run").inc()
            yield CellUpdate(
                job=job_for_key[key], result=result, source="run",
                positions=tuple(positions[key]), completed=completed,
                total=total,
            )
        elif event[0] == "error":
            failure = event[1]
            break
        else:  # "end" before every cell finished: a backend contract bug
            failure = RuntimeError(
                f"backend {executor.describe()} returned with "
                f"{len(pending) - done} cell(s) unfinished"
            )
            break
    driver.join(timeout=5.0)
    if failure is not None:
        raise failure


def run_sweep(
    cells: Iterable[SweepJob],
    *,
    backend: Optional[SweepBackend] = None,
    cache: Optional[ResultCache] = None,
    on_update: Optional[Callable[[CellUpdate], None]] = None,
) -> List[RunResult]:
    """Run a batch of simulation cells through ``cache``; returns their
    results in ``cells`` order.

    Identical cells are simulated once and fanned back out to every
    position that asked for them.  ``backend`` and ``cache`` are as for
    :func:`stream_sweep`, the stream this is a barrier over.
    ``on_update``, if given, gets each distinct cell's
    :class:`CellUpdate` as it lands, on the calling thread, cache-served
    cells first, so incremental consumers need no locking.  An exception
    from it stops the sweep: the cells in flight are abandoned, finished
    ones are already cached.
    """
    specs = list(cells)
    results: List[Optional[RunResult]] = [None] * len(specs)
    stream = stream_sweep(specs, backend=backend, cache=cache)
    try:
        for update in stream:
            for i in update.positions:
                results[i] = update.result
            if on_update is not None:
                on_update(update)
    finally:
        stream.close()
    return results  # type: ignore[return-value]  # every slot is filled
