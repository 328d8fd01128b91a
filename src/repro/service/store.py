"""Sqlite persistence for sweep-as-a-service: the job queue.

:class:`JobStore` is the coordinator's persistent job queue and event
log.  (The result cache the coordinator shares with every other entry
point is :class:`~repro.experiments.orchestrator.ResultCache`, whose
sqlite helpers this module reuses.)  Jobs -- sweep / scenario / report
submissions over the HTTP API -- survive coordinator crashes: a
SIGKILLed coordinator restarts, moves its ``running`` jobs back to
``queued`` (:meth:`JobStore.requeue_running`), and resumes -- finished
cells are already in the result cache, so the resumed job
fast-forwards through cache hits.  :meth:`JobStore.claim_next`
implements the scheduling policy: strict priority first, then **fair
share** across submitters (the submitter with the fewest
already-started jobs goes first), then FIFO.

The store opens one sqlite connection per thread (WAL journal, busy
timeout) so the HTTP handler threads, the scheduler, and concurrent
submitter processes can share it without a global lock.  Instances
must not be shared across ``fork()`` -- each process opens its own.

Every submit, event and cancel request through an instance also moves
its in-process change signal (:attr:`JobStore.version`,
:meth:`JobStore.wait_for_change`): the scheduler and the NDJSON event
streams block on it instead of polling the file, so a submit is
claimed, and an event streamed, the moment it lands.  The signal is
per instance: a row another process writes is seen at this instance's
next change.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.experiments.orchestrator import ResultCache, _connect, _txn

#: Jobs in these states are finished: no scheduler will touch them again.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Every state a job can be in (queued -> running -> one of the above).
JOB_STATES = ("queued", "running") + TERMINAL_STATES

#: The result cache's former service-side name, kept for importers.
SqliteResultCache = ResultCache


class JobStore:
    """The coordinator's persistent queue: jobs, states, and event logs.

    One sqlite file (``jobs.sqlite3`` under the service state
    directory) holds every submitted job and its streamed
    ``CellUpdate`` events, so a coordinator can be killed and restarted
    without losing the queue.  All methods are safe to call from any
    thread and from multiple processes sharing the file.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tls = threading.local()
        self._changed = threading.Condition()
        self._version = 0
        self._closed = False

    def _db(self) -> sqlite3.Connection:
        con = getattr(self._tls, "con", None)
        if con is None:
            con = _connect(self.path)
            con.execute(
                "CREATE TABLE IF NOT EXISTS jobs ("
                " id INTEGER PRIMARY KEY AUTOINCREMENT,"
                " kind TEXT NOT NULL,"
                " spec TEXT NOT NULL,"
                " submitter TEXT NOT NULL DEFAULT 'anonymous',"
                " priority INTEGER NOT NULL DEFAULT 0,"
                " state TEXT NOT NULL DEFAULT 'queued',"
                " cancel_requested INTEGER NOT NULL DEFAULT 0,"
                " submitted_at REAL NOT NULL,"
                " started_at REAL,"
                " finished_at REAL,"
                " attempts INTEGER NOT NULL DEFAULT 0,"
                " error TEXT,"
                " result TEXT)"
            )
            con.execute(
                "CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, id)"
            )
            con.execute(
                "CREATE TABLE IF NOT EXISTS job_events ("
                " job_id INTEGER NOT NULL,"
                " seq INTEGER NOT NULL,"
                " at REAL NOT NULL,"
                " payload TEXT NOT NULL,"
                " PRIMARY KEY (job_id, seq))"
            )
            self._tls.con = con
        return con

    @staticmethod
    def _row_to_job(row: Tuple) -> Dict[str, object]:
        (job_id, kind, spec, submitter, priority, state, cancel_requested,
         submitted_at, started_at, finished_at, attempts, error,
         result) = row
        return {
            "id": job_id,
            "kind": kind,
            "spec": json.loads(spec),
            "submitter": submitter,
            "priority": priority,
            "state": state,
            "cancel_requested": bool(cancel_requested),
            "submitted_at": submitted_at,
            "started_at": started_at,
            "finished_at": finished_at,
            "attempts": attempts,
            "error": error,
            "result": json.loads(result) if result else None,
        }

    _JOB_COLUMNS = (
        "id, kind, spec, submitter, priority, state, cancel_requested, "
        "submitted_at, started_at, finished_at, attempts, error, result"
    )

    # -- submission / inspection -----------------------------------------

    def submit(
        self,
        kind: str,
        spec: Dict[str, object],
        submitter: str = "anonymous",
        priority: int = 0,
    ) -> int:
        con = self._db()
        with _txn(con):
            cur = con.execute(
                "INSERT INTO jobs (kind, spec, submitter, priority, state,"
                " submitted_at) VALUES (?, ?, ?, ?, 'queued', ?)",
                (kind, json.dumps(spec, sort_keys=True), submitter,
                 int(priority), time.time()),
            )
        self.notify()
        return int(cur.lastrowid)

    def get(self, job_id: int) -> Optional[Dict[str, object]]:
        row = self._db().execute(
            f"SELECT {self._JOB_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return self._row_to_job(row) if row else None

    def list_jobs(
        self,
        state: Optional[str] = None,
        submitter: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        clauses, params = [], []
        if state is not None:
            clauses.append("state = ?")
            params.append(state)
        if submitter is not None:
            clauses.append("submitter = ?")
            params.append(submitter)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._db().execute(
            f"SELECT {self._JOB_COLUMNS} FROM jobs {where} ORDER BY id",
            params,
        ).fetchall()
        return [self._row_to_job(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        found = dict(self._db().execute(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"
        ).fetchall())
        return {state: found.get(state, 0) for state in JOB_STATES}

    # -- scheduling ------------------------------------------------------

    def claim_next(self) -> Optional[Dict[str, object]]:
        """Atomically claim the next runnable job (or None).

        Order: highest ``priority`` first; within a priority level the
        *submitter* with the fewest already-started jobs goes first
        (fair share -- one user queueing 100 sweeps cannot starve a
        user queueing 1), FIFO as the final tie-break.
        """
        con = self._db()
        with _txn(con):
            row = con.execute(
                f"""
                SELECT {self._JOB_COLUMNS} FROM jobs j
                WHERE j.state = 'queued'
                ORDER BY
                  j.priority DESC,
                  (SELECT COUNT(*) FROM jobs u
                   WHERE u.submitter = j.submitter
                     AND u.state IN ('running', 'done', 'failed')) ASC,
                  j.id ASC
                LIMIT 1
                """
            ).fetchone()
            if row is None:
                return None
            con.execute(
                "UPDATE jobs SET state = 'running', started_at = ?,"
                " attempts = attempts + 1 WHERE id = ?",
                (time.time(), row[0]),
            )
        return self.get(row[0])

    def requeue_running(self) -> List[int]:
        """Crash recovery: every ``running`` job back to ``queued``.

        Call once at coordinator startup -- a job can only be running
        while a scheduler holds it, and this store just got opened.
        """
        con = self._db()
        with _txn(con):
            ids = [row[0] for row in con.execute(
                "SELECT id FROM jobs WHERE state = 'running' ORDER BY id"
            ).fetchall()]
            con.execute(
                "UPDATE jobs SET state = 'queued' WHERE state = 'running'"
            )
        for job_id in ids:
            self.add_event(job_id, {
                "event": "state", "state": "queued",
                "note": "requeued after coordinator restart",
            })
        return ids

    # -- lifecycle -------------------------------------------------------

    def _finish(self, job_id: int, state: str, error: Optional[str],
                result: Optional[Dict[str, object]]) -> None:
        """The terminal state and its ``state`` event, in one
        transaction: a reader that sees the state sees the event."""
        con = self._db()
        with _txn(con):
            con.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, error = ?,"
                " result = ? WHERE id = ?",
                (state, time.time(), error,
                 json.dumps(result, sort_keys=True) if result is not None
                 else None,
                 job_id),
            )
            self._insert_event(con, job_id, {
                "event": "state", "state": state,
                **({"error": error} if error else {})})
        self.notify()

    def finish(self, job_id: int, result: Dict[str, object]) -> None:
        self._finish(job_id, "done", None, result)

    def fail(self, job_id: int, error: str) -> None:
        self._finish(job_id, "failed", error, None)

    def mark_cancelled(self, job_id: int) -> None:
        self._finish(job_id, "cancelled", None, None)

    def request_cancel(self, job_id: int) -> Optional[str]:
        """Cancel a job; returns its state after the request (or None).

        A ``queued`` job is cancelled outright; a ``running`` job gets
        ``cancel_requested`` set, honoured by the scheduler between
        cell updates; terminal jobs are left alone.
        """
        con = self._db()
        with _txn(con):
            row = con.execute(
                "SELECT state FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                return None
            state = row[0]
            if state == "queued":
                con.execute(
                    "UPDATE jobs SET state = 'cancelled', finished_at = ?"
                    " WHERE id = ?",
                    (time.time(), job_id),
                )
                self._insert_event(con, job_id, {"event": "state",
                                                 "state": "cancelled"})
                state = "cancelled"
            elif state == "running":
                con.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE id = ?",
                    (job_id,),
                )
        if state in ("cancelled", "running"):
            self.notify()
        return state

    def cancel_requested(self, job_id: int) -> bool:
        row = self._db().execute(
            "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return bool(row and row[0])

    # -- event log -------------------------------------------------------

    def add_event(self, job_id: int, payload: Dict[str, object]) -> int:
        con = self._db()
        with _txn(con):
            seq = self._insert_event(con, job_id, payload)
        self.notify()
        return seq

    @staticmethod
    def _insert_event(con: sqlite3.Connection, job_id: int,
                      payload: Dict[str, object]) -> int:
        """Append one event inside the caller's transaction."""
        seq = con.execute(
            "SELECT COALESCE(MAX(seq), 0) + 1 FROM job_events"
            " WHERE job_id = ?",
            (job_id,),
        ).fetchone()[0]
        con.execute(
            "INSERT INTO job_events (job_id, seq, at, payload)"
            " VALUES (?, ?, ?, ?)",
            (job_id, seq, time.time(), json.dumps(payload, sort_keys=True)),
        )
        return seq

    def events_after(
        self, job_id: int, after: int = 0
    ) -> List[Dict[str, object]]:
        rows = self._db().execute(
            "SELECT seq, at, payload FROM job_events"
            " WHERE job_id = ? AND seq > ? ORDER BY seq",
            (job_id, after),
        ).fetchall()
        return [
            {"seq": seq, "at": at, **json.loads(payload)}
            for seq, at, payload in rows
        ]

    # -- change signal ---------------------------------------------------

    @property
    def version(self) -> int:
        """Bumped by every submit, event and cancel request; read it
        *before* looking at the store, then pass it to
        :meth:`wait_for_change` so no change is lost."""
        return self._version

    def notify(self) -> None:
        """Wake every :meth:`wait_for_change` caller."""
        with self._changed:
            self._version += 1
            self._changed.notify_all()

    def wait_for_change(self, seen: int) -> bool:
        """Block until :attr:`version` moves past ``seen``.

        Returns False, without blocking, once the store is closed.
        """
        with self._changed:
            self._changed.wait_for(
                lambda: self._version != seen or self._closed)
            return not self._closed

    def close(self) -> None:
        """Close this thread's connection and release every waiter."""
        con = getattr(self._tls, "con", None)
        if con is not None:
            con.close()
            self._tls.con = None
        with self._changed:
            self._closed = True
            self._changed.notify_all()
