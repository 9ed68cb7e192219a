"""SQLite-backed durable job queue for sweep campaigns.

One row per submitted :class:`~repro.sim.runner.jobs.SweepJob`, keyed by
``(campaign, job_index)`` and carrying the job's content hash (== its
:class:`ResultCache` key) plus a pickled copy of the job itself, so any
process that can see the store file can reconstruct and run the work.

State machine (the only transitions the store will perform)::

    queued --lease--> leased --complete--> done
      ^                 |
      |                 +--fail/expire (attempts < max)--> queued (backoff)
      |                 +--fail/expire (attempts >= max)-> failed (dead letter)
      +--requeue (result lost from cache)-- done

Every transition is a single ``BEGIN IMMEDIATE`` transaction, so two
workers on two connections (threads, processes or hosts sharing the
directory) can never lease the same row, complete the same row twice, or
lose a row: ``queued + leased + done + failed == submitted`` always.

The journal is WAL so readers (the status endpoint, ``repro status``)
never block the workers.  A corrupted store file surfaces as
:class:`StoreCorruptError` — loudly, because silently recreating the
schema over a damaged campaign would fake an empty-but-healthy queue.
A zero-byte file, by contrast, *is* a fresh store (SQLite's own
convention) and initialises cleanly.
"""

from __future__ import annotations

import contextlib
import pickle
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.sim.campaign.lease import LeasePolicy
from repro.sim.runner.jobs import SweepJob

#: Every state a job row can be in (a partition: exactly one per row).
JOB_STATES = ("queued", "leased", "done", "failed")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    name     TEXT PRIMARY KEY,
    created  REAL NOT NULL,
    total    INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    campaign      TEXT NOT NULL,
    job_index     INTEGER NOT NULL,
    key           TEXT NOT NULL,
    workload      TEXT NOT NULL,
    system        TEXT NOT NULL,
    payload       BLOB NOT NULL,
    state         TEXT NOT NULL DEFAULT 'queued',
    attempts      INTEGER NOT NULL DEFAULT 0,
    max_attempts  INTEGER NOT NULL,
    not_before    REAL NOT NULL DEFAULT 0,
    lease_owner   TEXT,
    lease_expires REAL,
    error         TEXT,
    PRIMARY KEY (campaign, job_index)
);
CREATE INDEX IF NOT EXISTS idx_jobs_ready
    ON jobs (state, not_before, campaign, job_index);
CREATE INDEX IF NOT EXISTS idx_jobs_key ON jobs (key);
"""


class StoreCorruptError(RuntimeError):
    """The store file is damaged (truncated mid-page, overwritten, ...)."""


@dataclass(frozen=True)
class LeasedJob:
    """One job handed to a worker, with everything needed to run it."""

    campaign: str
    job_index: int
    key: str
    workload: str
    system: str
    payload: bytes
    attempts: int
    lease_expires: float

    def load(self) -> SweepJob:
        """Unpickle the job; raises on a garbled payload (poison job)."""
        job = pickle.loads(self.payload)
        if not isinstance(job, SweepJob):
            raise TypeError(
                f"payload of {self.campaign}[{self.job_index}] is not a "
                f"SweepJob (got {type(job).__name__})"
            )
        return job


class CampaignStore:
    """Durable queue of sweep jobs under one SQLite file."""

    def __init__(
        self,
        path: Union[str, Path],
        policy: Optional[LeasePolicy] = None,
    ):
        self.path = Path(path)
        self.policy = policy if policy is not None else LeasePolicy()
        self._local = threading.local()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._guard():
            con = self._connect()
            con.executescript(_SCHEMA)

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        """Thread-local connection (SQLite connections are not shareable)."""
        con = getattr(self._local, "con", None)
        if con is None:
            con = sqlite3.connect(
                str(self.path), timeout=30.0, isolation_level=None
            )
            con.row_factory = sqlite3.Row
            con.execute("PRAGMA journal_mode=WAL")
            con.execute("PRAGMA synchronous=NORMAL")
            self._local.con = con
        return con

    @contextlib.contextmanager
    def _guard(self) -> Iterator[None]:
        """Translate corruption into :class:`StoreCorruptError`.

        ``OperationalError`` (locked, busy, disk full) passes through —
        those are transient conditions, not damage — except for the
        not-a-database signature a clobbered header produces.
        """
        try:
            yield
        except sqlite3.OperationalError as exc:
            if "not a database" in str(exc):
                raise StoreCorruptError(
                    f"campaign store {self.path} is corrupt: {exc}"
                ) from exc
            raise
        except sqlite3.DatabaseError as exc:
            raise StoreCorruptError(
                f"campaign store {self.path} is corrupt: {exc}"
            ) from exc

    @contextlib.contextmanager
    def _txn(self) -> Iterator[sqlite3.Connection]:
        """One ``BEGIN IMMEDIATE`` write transaction (the lease lock)."""
        with self._guard():
            con = self._connect()
            con.execute("BEGIN IMMEDIATE")
            try:
                yield con
            except BaseException:
                con.execute("ROLLBACK")
                raise
            con.execute("COMMIT")

    def close(self) -> None:
        con = getattr(self._local, "con", None)
        if con is not None:
            con.close()
            self._local.con = None

    def integrity_check(self) -> None:
        """Raise :class:`StoreCorruptError` unless SQLite says ``ok``."""
        with self._guard():
            row = self._connect().execute("PRAGMA integrity_check").fetchone()
        if row is None or row[0] != "ok":
            raise StoreCorruptError(
                f"campaign store {self.path} failed integrity_check: "
                f"{row[0] if row else 'no result'}"
            )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, campaign: str, jobs: List[SweepJob]) -> Dict[str, int]:
        """Enqueue ``jobs`` (in order) under ``campaign``.

        Idempotent: resubmitting the identical job list is a no-op that
        returns the live counts, so a crashed submitter can simply rerun.
        A *different* job list under the same name is refused — silently
        swapping a campaign's contents would corrupt its resume story.
        """
        if not campaign:
            raise ValueError("campaign name must be non-empty")
        if not jobs:
            raise ValueError("cannot submit an empty campaign")
        keys = [job.cache_key() for job in jobs]
        with self._txn() as con:
            row = con.execute(
                "SELECT total FROM campaigns WHERE name = ?", (campaign,)
            ).fetchone()
            if row is not None:
                existing = [
                    r["key"]
                    for r in con.execute(
                        "SELECT key FROM jobs WHERE campaign = ? "
                        "ORDER BY job_index",
                        (campaign,),
                    )
                ]
                if existing != keys:
                    raise ValueError(
                        f"campaign {campaign!r} already exists with "
                        f"different jobs ({len(existing)} vs {len(keys)})"
                    )
            else:
                con.execute(
                    "INSERT INTO campaigns (name, created, total) "
                    "VALUES (?, ?, ?)",
                    (campaign, time.time(), len(jobs)),
                )
                con.executemany(
                    "INSERT INTO jobs (campaign, job_index, key, workload, "
                    "system, payload, max_attempts) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    [
                        (
                            campaign,
                            index,
                            key,
                            job.workload.name,
                            job.system.name,
                            pickle.dumps(job, protocol=4),
                            self.policy.max_attempts,
                        )
                        for index, (key, job) in enumerate(zip(keys, jobs))
                    ],
                )
        return self.counts(campaign)

    # ------------------------------------------------------------------
    # The lease protocol
    # ------------------------------------------------------------------
    def lease(
        self,
        worker: str,
        campaign: Optional[str] = None,
        now: Optional[float] = None,
    ) -> Optional[LeasedJob]:
        """Claim the next eligible queued job for ``worker``.

        ``BEGIN IMMEDIATE`` makes select-then-update atomic across
        connections, so no two workers can claim the same row.  Attempts
        count lease acquisitions — a worker that dies mid-job has still
        spent one of the job's ``max_attempts``.
        """
        now = time.time() if now is None else now
        where = "state = 'queued' AND not_before <= ?"
        args: List[object] = [now]
        if campaign is not None:
            where += " AND campaign = ?"
            args.append(campaign)
        with self._txn() as con:
            row = con.execute(
                f"SELECT campaign, job_index, key, workload, system, payload, "
                f"attempts FROM jobs WHERE {where} "
                "ORDER BY campaign, job_index LIMIT 1",
                args,
            ).fetchone()
            if row is None:
                return None
            expires = now + self.policy.lease_seconds
            con.execute(
                "UPDATE jobs SET state = 'leased', lease_owner = ?, "
                "lease_expires = ?, attempts = attempts + 1 "
                "WHERE campaign = ? AND job_index = ?",
                (worker, expires, row["campaign"], row["job_index"]),
            )
        return LeasedJob(
            campaign=row["campaign"],
            job_index=row["job_index"],
            key=row["key"],
            workload=row["workload"],
            system=row["system"],
            payload=row["payload"],
            attempts=row["attempts"] + 1,
            lease_expires=expires,
        )

    def heartbeat(
        self,
        campaign: str,
        job_index: int,
        worker: str,
        now: Optional[float] = None,
    ) -> bool:
        """Renew ``worker``'s lease; ``False`` means the lease was lost."""
        now = time.time() if now is None else now
        with self._txn() as con:
            cursor = con.execute(
                "UPDATE jobs SET lease_expires = ? "
                "WHERE campaign = ? AND job_index = ? "
                "AND state = 'leased' AND lease_owner = ?",
                (now + self.policy.lease_seconds, campaign, job_index, worker),
            )
            return cursor.rowcount == 1

    def complete(
        self, campaign: str, job_index: int, worker: str
    ) -> bool:
        """Mark a leased job done; only its current lease owner may.

        ``False`` when the lease was lost (expired and re-leased) or the
        job already completed — a job can never be double-completed.
        """
        with self._txn() as con:
            cursor = con.execute(
                "UPDATE jobs SET state = 'done', lease_owner = NULL, "
                "lease_expires = NULL, error = NULL "
                "WHERE campaign = ? AND job_index = ? "
                "AND state = 'leased' AND lease_owner = ?",
                (campaign, job_index, worker),
            )
            return cursor.rowcount == 1

    def fail(
        self,
        campaign: str,
        job_index: int,
        worker: str,
        error: str,
        now: Optional[float] = None,
    ) -> Optional[str]:
        """Record a failed execution; requeue with backoff or dead-letter.

        Returns the resulting state (``"queued"`` or ``"failed"``), or
        ``None`` when ``worker`` no longer owned the lease.  The captured
        traceback is kept either way: on a requeue it documents the most
        recent attempt, on a dead-letter it is the post-mortem.
        """
        now = time.time() if now is None else now
        with self._txn() as con:
            row = con.execute(
                "SELECT attempts, max_attempts FROM jobs "
                "WHERE campaign = ? AND job_index = ? "
                "AND state = 'leased' AND lease_owner = ?",
                (campaign, job_index, worker),
            ).fetchone()
            if row is None:
                return None
            state = (
                "failed" if row["attempts"] >= row["max_attempts"] else "queued"
            )
            con.execute(
                "UPDATE jobs SET state = ?, lease_owner = NULL, "
                "lease_expires = NULL, error = ?, not_before = ? "
                "WHERE campaign = ? AND job_index = ?",
                (
                    state,
                    error,
                    now + self.policy.backoff(row["attempts"]),
                    campaign,
                    job_index,
                ),
            )
        return state

    def expire_leases(self, now: Optional[float] = None) -> int:
        """Reclaim every lease whose deadline passed (crashed workers).

        Jobs with attempts left return to ``queued`` behind their backoff
        gate; exhausted ones dead-letter with a synthetic error, since the
        dead worker left no traceback of its own.
        """
        now = time.time() if now is None else now
        reclaimed = 0
        with self._txn() as con:
            rows = con.execute(
                "SELECT campaign, job_index, attempts, max_attempts, "
                "lease_owner FROM jobs "
                "WHERE state = 'leased' AND lease_expires < ?",
                (now,),
            ).fetchall()
            for row in rows:
                exhausted = row["attempts"] >= row["max_attempts"]
                con.execute(
                    "UPDATE jobs SET state = ?, lease_owner = NULL, "
                    "lease_expires = NULL, error = ?, not_before = ? "
                    "WHERE campaign = ? AND job_index = ?",
                    (
                        "failed" if exhausted else "queued",
                        (
                            f"lease of {row['lease_owner']!r} expired after "
                            f"attempt {row['attempts']}/{row['max_attempts']}"
                        ),
                        now + self.policy.backoff(row["attempts"]),
                        row["campaign"],
                        row["job_index"],
                    ),
                )
                reclaimed += 1
        return reclaimed

    def requeue(self, campaign: str, job_index: int) -> bool:
        """Force a ``done``/``failed`` job back to ``queued``.

        Used when a completed job's cached result went missing or corrupt
        (the store said done, the cache disagreed — the cache wins, the
        job recomputes) and by explicit dead-letter retries.  Attempts
        reset: this is a fresh submission of the same content.
        """
        with self._txn() as con:
            cursor = con.execute(
                "UPDATE jobs SET state = 'queued', attempts = 0, "
                "not_before = 0, lease_owner = NULL, lease_expires = NULL, "
                "error = NULL "
                "WHERE campaign = ? AND job_index = ? "
                "AND state IN ('done', 'failed')",
                (campaign, job_index),
            )
            return cursor.rowcount == 1

    # ------------------------------------------------------------------
    # Introspection (plain reads: WAL keeps them non-blocking)
    # ------------------------------------------------------------------
    def campaigns(self) -> List[str]:
        with self._guard():
            rows = self._connect().execute(
                "SELECT name FROM campaigns ORDER BY name"
            ).fetchall()
        return [row["name"] for row in rows]

    def counts(self, campaign: str) -> Dict[str, int]:
        """Per-state row counts (every state present, zeros included)."""
        with self._guard():
            rows = self._connect().execute(
                "SELECT state, COUNT(*) AS n FROM jobs "
                "WHERE campaign = ? GROUP BY state",
                (campaign,),
            ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        for row in rows:
            counts[row["state"]] = row["n"]
        counts["total"] = sum(counts[state] for state in JOB_STATES)
        return counts

    def pending(self, campaign: Optional[str] = None) -> int:
        """Jobs that are not yet settled (``queued`` or ``leased``).

        A queued job behind its backoff gate still counts: it will become
        leasable once the gate passes, so a draining worker must wait for
        it rather than declare the campaign finished.
        """
        where = "state IN ('queued', 'leased')"
        args: List[object] = []
        if campaign is not None:
            where += " AND campaign = ?"
            args.append(campaign)
        with self._guard():
            row = self._connect().execute(
                f"SELECT COUNT(*) FROM jobs WHERE {where}", args
            ).fetchone()
        return int(row[0])

    def total(self, campaign: str) -> int:
        with self._guard():
            row = self._connect().execute(
                "SELECT total FROM campaigns WHERE name = ?", (campaign,)
            ).fetchone()
        if row is None:
            raise KeyError(f"unknown campaign {campaign!r}")
        return row["total"]

    def all_done(self, campaign: str) -> bool:
        counts = self.counts(campaign)
        return counts["total"] > 0 and counts["done"] == counts["total"]

    def jobs_in_order(self, campaign: str) -> List[Dict[str, object]]:
        """Submission-order job rows (without the pickled payload)."""
        with self._guard():
            rows = self._connect().execute(
                "SELECT job_index, key, workload, system, state, attempts, "
                "max_attempts, lease_owner, lease_expires, error "
                "FROM jobs WHERE campaign = ? ORDER BY job_index",
                (campaign,),
            ).fetchall()
        return [dict(row) for row in rows]

    def load_jobs(self, campaign: str) -> List[SweepJob]:
        """The campaign's jobs, unpickled, in submission order."""
        rows = self.jobs_in_order(campaign)
        if not rows:
            raise KeyError(f"unknown campaign {campaign!r}")
        return [
            pickle.loads(self.job(campaign, row["job_index"])["payload"])
            for row in rows
        ]

    def job(self, campaign: str, job_index: int) -> Dict[str, object]:
        with self._guard():
            row = self._connect().execute(
                "SELECT * FROM jobs WHERE campaign = ? AND job_index = ?",
                (campaign, job_index),
            ).fetchone()
        if row is None:
            raise KeyError(f"no job {job_index} in campaign {campaign!r}")
        return dict(row)

    def dead_letters(self, campaign: str) -> List[Dict[str, object]]:
        """Failed jobs with their captured tracebacks, in job order."""
        return [
            row
            for row in self.jobs_in_order(campaign)
            if row["state"] == "failed"
        ]
