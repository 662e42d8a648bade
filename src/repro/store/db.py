"""The persistent run store: stdlib sqlite3, one row per run.

The store is deliberately boring: explicit columns for everything the
analytics layer filters or aggregates on (kind, name, scale,
fingerprint, digest, timings) plus canonical-JSON text columns for the
structured payloads (config, metrics, findings, verdicts, telemetry).
Rows are immutable once written; inserts are idempotent on ``run_id``
(which is content-derived, so re-ingesting a source file is a no-op).

A ``store_meta`` table pins the schema version.  Opening a store
written by a different version raises
:class:`~repro.store.schema.SchemaMigrationError` before any row is
touched -- see the schema module for the migration policy.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple, Union

from .schema import (
    SCHEMA_VERSION,
    RunRecord,
    SchemaMigrationError,
    StoreError,
    canonical_json,
)

__all__ = ["RunStore"]

#: how long sqlite itself waits on a writer's lock before raising
#: ``SQLITE_BUSY`` (milliseconds)
_BUSY_TIMEOUT_MS = 5_000
#: belt-and-braces retries on top of the busy timeout: ``put`` is
#: idempotent on ``run_id``, so re-issuing the insert is always safe
_BUSY_RETRIES = 5

_CREATE = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    seq            INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id         TEXT NOT NULL UNIQUE,
    kind           TEXT NOT NULL,
    name           TEXT NOT NULL,
    scale          TEXT NOT NULL DEFAULT '',
    fingerprint    TEXT NOT NULL,
    config_json    TEXT NOT NULL DEFAULT '{}',
    trace_digest   TEXT NOT NULL DEFAULT '',
    n_events       INTEGER NOT NULL DEFAULT 0,
    total_bytes    INTEGER NOT NULL DEFAULT 0,
    elapsed        REAL NOT NULL DEFAULT 0.0,
    wall_time      REAL,
    created_at     TEXT NOT NULL DEFAULT '',
    metrics_json   TEXT NOT NULL DEFAULT '{}',
    findings_json  TEXT NOT NULL DEFAULT '[]',
    verdicts_json  TEXT NOT NULL DEFAULT '{}',
    telemetry_json TEXT NOT NULL DEFAULT '{}',
    notes          TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_runs_group ON runs (kind, name);
CREATE INDEX IF NOT EXISTS idx_runs_fingerprint ON runs (fingerprint);
"""


class RunStore:
    """Open (or create) the run store at ``path``.

    Usable as a context manager; :meth:`close` is idempotent.  Pass
    ``":memory:"`` for an ephemeral store (tests).
    """

    def __init__(self, path: Union[str, Path], *, create: bool = True):
        self.path = str(path)
        exists = self.path == ":memory:" or Path(self.path).exists()
        if not exists and not create:
            raise StoreError(f"no run store at {self.path!r}")
        self._conn = sqlite3.connect(
            self.path, timeout=_BUSY_TIMEOUT_MS / 1000.0
        )
        self._conn.execute("PRAGMA foreign_keys = ON")
        # concurrent writers (e.g. a fleet of --store runs sharing one
        # DB) block instead of failing fast on the write lock
        self._conn.execute(f"PRAGMA busy_timeout = {_BUSY_TIMEOUT_MS}")
        if exists and self.path != ":memory:":
            self._check_version()
        self._conn.executescript(_CREATE)
        self._conn.execute(
            "INSERT OR IGNORE INTO store_meta (key, value) VALUES (?, ?)",
            ("schema_version", str(SCHEMA_VERSION)),
        )
        self._conn.commit()
        self._check_version()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_version(self) -> None:
        try:
            row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.OperationalError:
            return  # brand-new file: tables not created yet
        if row is None:
            return
        found = int(row[0])
        if found != SCHEMA_VERSION:
            self._conn.close()
            raise SchemaMigrationError(
                f"store {self.path!r} has schema v{found} but this code "
                f"speaks v{SCHEMA_VERSION}; re-ingest the source JSON "
                f"(`python -m repro.store ingest ...`) into a fresh store "
                f"instead of reading it in place"
            )

    # -- writes ------------------------------------------------------------
    def put(self, record: RunRecord) -> bool:
        """Insert one record; returns False when ``run_id`` was already
        stored (idempotent re-ingest).

        Safe under concurrent writers: sqlite blocks up to the busy
        timeout, and on a still-contended ``SQLITE_BUSY``/``database is
        locked`` the insert is retried -- idempotence on ``run_id``
        makes the retry harmless even if the first attempt committed."""
        last_exc: Optional[sqlite3.OperationalError] = None
        for _ in range(_BUSY_RETRIES):
            try:
                return self._put_once(record)
            except sqlite3.OperationalError as exc:
                msg = str(exc).lower()
                if "locked" not in msg and "busy" not in msg:
                    raise
                last_exc = exc
                try:
                    self._conn.rollback()
                except sqlite3.OperationalError:
                    pass
        assert last_exc is not None
        raise StoreError(
            f"store {self.path!r} stayed locked through "
            f"{_BUSY_RETRIES} attempts ({last_exc})"
        ) from last_exc

    def _put_once(self, record: RunRecord) -> bool:
        cur = self._conn.execute(
            """
            INSERT OR IGNORE INTO runs (
                run_id, kind, name, scale, fingerprint, config_json,
                trace_digest, n_events, total_bytes, elapsed, wall_time,
                created_at, metrics_json, findings_json, verdicts_json,
                telemetry_json, notes
            ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (
                record.run_id, record.kind, record.name, record.scale,
                record.fingerprint, canonical_json(record.config),
                record.trace_digest, record.n_events, record.total_bytes,
                record.elapsed, record.wall_time, record.created_at,
                canonical_json(record.metrics),
                canonical_json(list(record.findings)),
                canonical_json(record.verdicts),
                canonical_json(record.telemetry),
                record.notes,
            ),
        )
        self._conn.commit()
        return cur.rowcount > 0

    # -- reads -------------------------------------------------------------
    @staticmethod
    def _record(row: sqlite3.Row) -> RunRecord:
        return RunRecord(
            run_id=row["run_id"],
            kind=row["kind"],
            name=row["name"],
            scale=row["scale"],
            fingerprint=row["fingerprint"],
            config=json.loads(row["config_json"]),
            trace_digest=row["trace_digest"],
            n_events=row["n_events"],
            total_bytes=row["total_bytes"],
            elapsed=row["elapsed"],
            wall_time=row["wall_time"],
            created_at=row["created_at"],
            metrics=json.loads(row["metrics_json"]),
            findings=tuple(json.loads(row["findings_json"])),
            verdicts=json.loads(row["verdicts_json"]),
            telemetry=json.loads(row["telemetry_json"]),
            notes=row["notes"],
        )

    def get(self, run_id: str) -> Optional[RunRecord]:
        self._conn.row_factory = sqlite3.Row
        row = self._conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        return None if row is None else self._record(row)

    def query(
        self,
        *,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        scale: Optional[str] = None,
        fingerprint: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[RunRecord]:
        """Matching records in insertion order (oldest first)."""
        clauses: List[str] = []
        params: List[Any] = []
        for column, value in (
            ("kind", kind), ("name", name),
            ("scale", scale), ("fingerprint", fingerprint),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = "SELECT * FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY seq"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        self._conn.row_factory = sqlite3.Row
        return [
            self._record(row)
            for row in self._conn.execute(sql, params).fetchall()
        ]

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.query())

    def __len__(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(row[0])

    def groups(self) -> List[Tuple[str, str, int]]:
        """Distinct ``(kind, name, count)`` groups, sorted."""
        rows = self._conn.execute(
            "SELECT kind, name, COUNT(*) FROM runs "
            "GROUP BY kind, name ORDER BY kind, name"
        ).fetchall()
        return [(str(k), str(n), int(c)) for k, n, c in rows]
