"""Durable job journal: the coordinator's crash-recoverable memory.

The :class:`~repro.service.Coordinator` of PR 8 kept every job, lease
and merged result in RAM — one SIGKILL lost all in-flight sweeps even
though the workers and the :class:`~repro.store.ResultStore` survived.
:class:`JobJournal` closes that gap: a single sqlite file (stdlib
only, WAL + upsert, the store's own concurrency discipline) recording

* every submitted job — its opaque sweep-function envelope, encoded
  point list, retry spec, budgets and metadata, exactly as they
  arrived on the wire;
* every merged result and quarantine record, keyed by ``(job, grid
  index)`` with ``INSERT OR IGNORE`` — first-write-wins at the
  persistence layer, so double delivery (a reassigned lease completing
  twice, a replay racing a late worker) is idempotent by construction;
* terminal job states (done / cancelled), so replay skips them.

On restart the coordinator calls :meth:`replay`: each open job comes
back with its already-merged results, and the missing grid indices are
re-queued as fresh shard leases.  Because a point's value depends only
on its store query (scenario key, formula, backend, config), never on
its grid position or worker, a recovered sweep merges bit-identical to
an uninterrupted one.

The journal also owns the **boot epoch**: a monotone counter bumped by
:meth:`bump_epoch` at every coordinator start and stamped into worker
registrations.  Results carrying a pre-restart epoch are fenced off by
the coordinator — a worker that slept through a restart cannot write
into the new incarnation's merge under a recycled worker id.

Payloads here are the wire envelopes themselves (JSON-able dicts from
:func:`repro.service.wire.encode`), stored as canonical JSON text —
the journal never unpickles anything, mirroring the coordinator's
forward-only handling of job payloads.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["JOURNAL_SCHEMA_VERSION", "JournalError", "JournaledJob", "JobJournal"]

#: Bumped on any journal schema change; a mismatched file refuses to
#: open rather than silently replaying mis-shaped rows.
JOURNAL_SCHEMA_VERSION = 1


class JournalError(Exception):
    """A journal operation failed (schema mismatch, bad payload, ...)."""


@dataclass
class JournaledJob:
    """One open job as recovered by :meth:`JobJournal.replay`."""

    id: str
    fn: Dict[str, Any]
    retry: Dict[str, Any]
    points: List[Dict[str, Any]]
    created: float
    point_budget: Optional[float]
    shard_size: Optional[int]
    meta: Dict[str, Any] = field(default_factory=dict)
    results: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    quarantined: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def missing(self) -> List[int]:
        """Grid indices with neither a result nor a quarantine record."""
        have = set(self.results) | set(self.quarantined)
        return [i for i in range(len(self.points)) if i not in have]

    def missing_ranges(self) -> List[Tuple[int, int]]:
        """Contiguous ``[start, stop)`` runs of missing indices — the
        shard ranges a replaying coordinator re-queues."""
        ranges: List[Tuple[int, int]] = []
        for index in self.missing:
            if ranges and ranges[-1][1] == index:
                ranges[-1] = (ranges[-1][0], index + 1)
            else:
                ranges.append((index, index + 1))
        return ranges


_SCHEMA = """
CREATE TABLE IF NOT EXISTS journal_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    id           TEXT PRIMARY KEY,
    fn           TEXT NOT NULL,
    retry        TEXT NOT NULL,
    points       TEXT NOT NULL,
    created      REAL NOT NULL,
    point_budget REAL,
    shard_size   INTEGER,
    meta         TEXT NOT NULL DEFAULT '{}',
    done         INTEGER NOT NULL DEFAULT 0,
    cancelled    INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS results (
    job     TEXT NOT NULL,
    idx     INTEGER NOT NULL,
    payload TEXT NOT NULL,
    created REAL NOT NULL,
    PRIMARY KEY (job, idx)
);
CREATE TABLE IF NOT EXISTS quarantine (
    job     TEXT NOT NULL,
    idx     INTEGER NOT NULL,
    record  TEXT NOT NULL,
    created REAL NOT NULL,
    PRIMARY KEY (job, idx)
);
"""


class JobJournal:
    """Crash-recoverable job/result journal for one coordinator.

    Parameters
    ----------
    path:
        Filesystem path of the sqlite journal (created on first use).
    timeout:
        sqlite busy timeout in seconds, matching the store's default.

    Thread safety mirrors :class:`~repro.store.ResultStore`: one
    connection opened lazily with ``check_same_thread=False``, every
    write serialized behind an internal lock (the coordinator holds
    its own lock across calls anyway; the journal stays safe when
    driven standalone, e.g. from tests or tooling).
    """

    def __init__(
        self,
        path: "os.PathLike[str] | str",
        *,
        timeout: float = 30.0,
    ) -> None:
        self.path = os.fspath(path)
        self.timeout = timeout
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None

    # -- connection lifecycle ----------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            conn = sqlite3.connect(
                self.path, timeout=self.timeout, check_same_thread=False
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            conn.execute(
                "INSERT OR IGNORE INTO journal_meta (key, value) VALUES (?, ?)",
                ("schema", str(JOURNAL_SCHEMA_VERSION)),
            )
            conn.execute(
                "INSERT OR IGNORE INTO journal_meta (key, value) VALUES (?, ?)",
                ("epoch", "0"),
            )
            conn.commit()
            stored = conn.execute(
                "SELECT value FROM journal_meta WHERE key = 'schema'"
            ).fetchone()[0]
            if int(stored) != JOURNAL_SCHEMA_VERSION:
                conn.close()
                raise JournalError(
                    f"{self.path}: journal schema v{stored} does not match"
                    f" this code's v{JOURNAL_SCHEMA_VERSION}"
                )
            self._conn = conn
        return self._conn

    def close(self) -> None:
        """Close the sqlite connection (reopened lazily on next use)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- epoch fencing -----------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current boot epoch (0 before the first bump)."""
        with self._lock:
            row = self._connection().execute(
                "SELECT value FROM journal_meta WHERE key = 'epoch'"
            ).fetchone()
            return int(row[0])

    def bump_epoch(self) -> int:
        """Advance and return the boot epoch (one bump per coordinator
        start); atomic under concurrent bumpers via an immediate
        transaction."""
        with self._lock:
            conn = self._connection()
            with conn:  # one atomic read-modify-write
                conn.execute("BEGIN IMMEDIATE")
                current = int(
                    conn.execute(
                        "SELECT value FROM journal_meta WHERE key = 'epoch'"
                    ).fetchone()[0]
                )
                conn.execute(
                    "UPDATE journal_meta SET value = ? WHERE key = 'epoch'",
                    (str(current + 1),),
                )
            return current + 1

    # -- recording ---------------------------------------------------------

    def record_submit(
        self,
        job_id: str,
        *,
        fn: Dict[str, Any],
        retry: Dict[str, Any],
        points: List[Dict[str, Any]],
        created: float,
        point_budget: Optional[float],
        shard_size: Optional[int],
        meta: Dict[str, Any],
    ) -> None:
        """Persist one submitted job before its id is handed out."""
        with self._lock:
            conn = self._connection()
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO jobs (id, fn, retry, points,"
                    " created, point_budget, shard_size, meta)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        job_id,
                        json.dumps(fn, separators=(",", ":")),
                        json.dumps(retry, separators=(",", ":")),
                        json.dumps(points, separators=(",", ":")),
                        created,
                        point_budget,
                        shard_size,
                        json.dumps(meta, separators=(",", ":"), default=repr),
                    ),
                )

    def record_results(
        self, job_id: str, results: Iterable[Tuple[int, Dict[str, Any]]]
    ) -> None:
        """Persist merged results; ``INSERT OR IGNORE`` keyed by
        ``(job, index)`` makes double delivery idempotent — the first
        write wins here exactly as it does in the in-memory merge."""
        rows = [
            (job_id, index, json.dumps(payload, separators=(",", ":")), time.time())
            for index, payload in results
        ]
        if not rows:
            return
        with self._lock:
            conn = self._connection()
            with conn:
                conn.executemany(
                    "INSERT OR IGNORE INTO results (job, idx, payload, created)"
                    " VALUES (?, ?, ?, ?)",
                    rows,
                )

    def record_quarantine(
        self, job_id: str, index: int, record: Dict[str, Any]
    ) -> None:
        """Persist one quarantined point (first write wins)."""
        with self._lock:
            conn = self._connection()
            with conn:
                conn.execute(
                    "INSERT OR IGNORE INTO quarantine (job, idx, record, created)"
                    " VALUES (?, ?, ?, ?)",
                    (
                        job_id,
                        index,
                        json.dumps(record, separators=(",", ":")),
                        time.time(),
                    ),
                )

    def _set_flag(self, job_id: str, column: str) -> None:
        with self._lock:
            conn = self._connection()
            with conn:
                conn.execute(
                    f"UPDATE jobs SET {column} = 1 WHERE id = ?", (job_id,)
                )

    def record_done(self, job_id: str) -> None:
        """Mark a job complete; :meth:`replay` will skip it."""
        self._set_flag(job_id, "done")

    def record_cancelled(self, job_id: str) -> None:
        """Mark a job cancelled; :meth:`replay` will skip it."""
        self._set_flag(job_id, "cancelled")

    # -- recovery ----------------------------------------------------------

    def replay(self) -> List[JournaledJob]:
        """Every open (not done, not cancelled) job with its merged
        results and quarantines, oldest first — the coordinator's
        restart worklist."""
        with self._lock:
            conn = self._connection()
            jobs: List[JournaledJob] = []
            for row in conn.execute(
                "SELECT id, fn, retry, points, created, point_budget,"
                " shard_size, meta FROM jobs"
                " WHERE done = 0 AND cancelled = 0 ORDER BY created, id"
            ):
                jobs.append(
                    JournaledJob(
                        id=row[0],
                        fn=json.loads(row[1]),
                        retry=json.loads(row[2]),
                        points=json.loads(row[3]),
                        created=row[4],
                        point_budget=row[5],
                        shard_size=row[6],
                        meta=json.loads(row[7]),
                    )
                )
            by_id = {job.id: job for job in jobs}
            for job_id, index, payload in conn.execute(
                "SELECT job, idx, payload FROM results"
            ):
                if job_id in by_id:
                    by_id[job_id].results[index] = json.loads(payload)
            for job_id, index, record in conn.execute(
                "SELECT job, idx, record FROM quarantine"
            ):
                if job_id in by_id:
                    by_id[job_id].quarantined[index] = json.loads(record)
            return jobs

    def prune(self) -> int:
        """Drop finished/cancelled jobs and their rows; returns the
        number of jobs removed (replay never sees them anyway — this
        just keeps long-lived journals small)."""
        with self._lock:
            conn = self._connection()
            with conn:
                closed = [
                    row[0]
                    for row in conn.execute(
                        "SELECT id FROM jobs WHERE done = 1 OR cancelled = 1"
                    )
                ]
                for job_id in closed:
                    conn.execute("DELETE FROM results WHERE job = ?", (job_id,))
                    conn.execute(
                        "DELETE FROM quarantine WHERE job = ?", (job_id,)
                    )
                    conn.execute("DELETE FROM jobs WHERE id = ?", (job_id,))
            return len(closed)

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Aggregate journal view (surfaced by ``/healthz``)."""
        with self._lock:
            conn = self._connection()
            total, open_jobs = conn.execute(
                "SELECT COUNT(*), SUM(done = 0 AND cancelled = 0) FROM jobs"
            ).fetchone()
            results = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
            epoch = int(
                conn.execute(
                    "SELECT value FROM journal_meta WHERE key = 'epoch'"
                ).fetchone()[0]
            )
            return {
                "path": self.path,
                "epoch": epoch,
                "jobs": total,
                "jobs_open": int(open_jobs or 0),
                "results": results,
            }
