"""Persistent guarantee store: sqlite-backed check-result caching.

The paper's pitch is *cheap, repeatable* statistical guarantees — and
repeatable means a second query for the same guarantee should be a
cache hit, not a solve.  :class:`ResultStore` is that cache: one
sqlite file (stdlib only) holding every checked sweep point with full
provenance, shared safely between concurrent writer threads and
processes (WAL journal + upsert writes).

Cache-key contract
------------------
A stored row is addressed by the SHA-256 of the canonical JSON of::

    [salt, scenario, formula, backend, config]

* ``salt`` — the code/version salt (default
  ``repro/<version>/n<k>/store-v<schema>``); bumping the package
  version, the numerics revision ``k`` or the schema invalidates every
  cached result.
* ``scenario`` — the JSON-able scenario identity.  ``zoo.sweep`` uses
  ``ScenarioSpec.key()`` over the *fully merged* parameters plus the
  ``reduce`` flag, so ``points=[{}]`` and the spelled-out defaults hit
  the same row.
* ``formula`` — the pCTL property string as the caller passes it.
  ``sweep_check`` and the service pass the canonical text
  ``str(parse_formula(formula))``, so two spellings of one property
  share a row.
* ``backend`` — ``"exact"`` / ``"apmc"`` / ``"sprt"``.
* ``config`` — the backend fingerprint from :func:`check_fingerprint`:
  solver method + tolerances for exact runs, ``(epsilon, delta, batch,
  seed)`` for APMC, ``(theta, half_width, alpha, beta, seed)`` for
  SPRT.  Any change — including the seed — is a different key.

Values round-trip exactly: floats are stored via JSON's repr-based
encoding (bit-exact), and the result dataclasses (:class:`ApmcResult`,
:class:`SprtResult`, :class:`~repro.core.Guarantee`) are encoded
field-by-field and rebuilt on read, so a warm sweep returns objects
equal to the cold run's.

The store pickles by *location* (path, salt, timeout), not by
connection: each unpickled copy — e.g. one captured by a sweep
function that a process-executor worker runs — reopens its own
connection lazily, which is exactly the safe way to share sqlite
across processes.

Reads are pure reads: a hit is one ``SELECT`` on a read connection of
its own, so it never waits on another connection's write lock, nor on
this store's own ``put`` waiting for one (the service answers warm hits
on its event loop).  Hit counts accumulate in memory and are written by the
next :meth:`~ResultStore.put`, by :meth:`~ResultStore.query` and
:meth:`~ResultStore.stats`, or by :meth:`~ResultStore.close` — close a
store to keep its counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.analyzer import Guarantee
from ..engine.config import SmcConfig, SolverConfig
from ..resilience.validate import (
    ValidationWarning,
    numeric_value,
    validate_guarantee,
)
from ..smc.hoeffding import ApmcResult
from ..smc.sprt import SprtResult
from .history import DRIFT_TOLERANCE, SaltDiff, guarantees

__all__ = [
    "SCHEMA_VERSION",
    "NUMERICS_REVISION",
    "StoreError",
    "StoredResult",
    "StoreStats",
    "ResultStore",
    "canonical",
    "make_key",
    "check_fingerprint",
    "encode_value",
    "decode_value",
]

#: Bumped whenever the row schema or the value encoding changes; part
#: of the default salt, so stale stores never serve mis-shaped rows.
#: v2 added the queryable ``salt`` column (survey history over
#: versions); v1 files are migrated in place on first open.
SCHEMA_VERSION = 2

#: Bumped whenever a change moves computed values (an exact solve, an
#: SMC estimate for a given seed); part of the default salt, so rows
#: banked by older numerics stay readable as history but are never
#: served as hits.  ``tests/test_numerics_golden.py`` pins one value
#: per zoo family and fails until this is bumped.  Revision 1: alias
#: tables built in one vectorized pass, and reachability rewards
#: finite exactly on the graph Prob1 set.
NUMERICS_REVISION = 1


class StoreError(Exception):
    """A result-store operation failed (bad key, bad payload, ...)."""


def _default_salt() -> str:
    from .. import __version__  # deferred: repro/__init__ imports this module

    return f"repro/{__version__}/n{NUMERICS_REVISION}/store-v{SCHEMA_VERSION}"


def _json_default(obj: Any) -> Any:
    # numpy scalars/arrays appear in grid points and check values; they
    # canonicalize to their Python equivalents.  Anything else is an
    # error — a repr() fallback would silently change between processes
    # and turn every warm lookup into a miss.
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dep
        np = None
    if np is not None:
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
    raise StoreError(
        f"cannot canonicalize {type(obj).__name__!r} for a store key;"
        " scenario identities and configs must be JSON-able"
    )


def canonical(obj: Any) -> str:
    """Deterministic JSON text of ``obj`` (sorted keys, no whitespace)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_json_default
    )


def make_key(
    salt: str, scenario: Any, formula: str, backend: str, config: Any
) -> str:
    """SHA-256 hex digest of the canonical cache-key tuple."""
    text = canonical([salt, scenario, formula, backend, config])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_fingerprint(
    backend: str,
    *,
    smc: Optional[SmcConfig] = None,
    solver: Any = None,
    theta: Optional[float] = None,
) -> Dict[str, Any]:
    """The backend-config part of the cache key.

    Exactly the knobs that change a checked number: the solver method
    and tolerances for ``"exact"``, the Hoeffding accuracy + seed for
    ``"apmc"``, the SPRT error rates + threshold + seed for ``"sprt"``.
    """
    if backend == "exact":
        cfg = SolverConfig.coerce(solver)
        return {
            "backend": "exact",
            "method": cfg.method,
            "tolerance": cfg.tolerance,
            "max_iterations": cfg.max_iterations,
        }
    cfg = SmcConfig.coerce(smc)
    if backend == "apmc":
        return {
            "backend": "apmc",
            "epsilon": cfg.epsilon,
            "delta": cfg.delta,
            "batch": cfg.batch,
            "seed": cfg.seed,
        }
    if backend == "sprt":
        return {
            "backend": "sprt",
            "theta": theta,
            "half_width": cfg.half_width,
            "alpha": cfg.alpha,
            "beta": cfg.beta,
            "seed": cfg.seed,
        }
    raise StoreError(f"unknown checking backend {backend!r}")


# ----------------------------------------------------------------------
# Value encoding: tagged JSON, dataclasses rebuilt field-by-field.
# ----------------------------------------------------------------------

#: Result dataclasses the store round-trips losslessly.
_VALUE_TYPES: Dict[str, type] = {
    "apmc": ApmcResult,
    "sprt": SprtResult,
    "guarantee": Guarantee,
}

#: JSON types a scalar field accepts, by its annotation, the annotated
#: type last.  ``bool`` is an ``int`` subclass, so the numeric
#: annotations reject it explicitly.
_SCALAR_TYPES: Dict[str, Tuple[type, ...]] = {
    "float": (int, float),
    "int": (int,),
    "bool": (bool,),
    "str": (str,),
}

#: Per value kind, every field's accepted JSON types (``None`` for a
#: field that is not a scalar); built once.
_FIELD_TYPES: Dict[str, Dict[str, Optional[Tuple[type, ...]]]] = {
    kind: {
        f.name: _SCALAR_TYPES.get(getattr(f.type, "__name__", f.type))
        for f in fields(cls)
    }
    for kind, cls in _VALUE_TYPES.items()
}


def encode_value(value: Any) -> str:
    """Tagged-JSON text of one storable check value.

    The store's own row payload encoding, public because the service
    wire protocol (:mod:`repro.service.wire`) ships check results in
    exactly this form — a value computed on a remote worker round-trips
    through the same codec a local sweep banks with, so remote results
    are bit-compatible with warm store hits.
    """
    import numpy as np

    if isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, np.floating):
        value = float(value)
    elif isinstance(value, np.bool_):
        value = bool(value)
    for tag, cls in _VALUE_TYPES.items():
        if isinstance(value, cls):
            return json.dumps({"kind": tag, "data": asdict(value)})
    if value is None or isinstance(value, (bool, int, float, str, list, dict)):
        return json.dumps({"kind": "json", "data": value})
    raise StoreError(
        f"cannot store a value of type {type(value).__name__!r};"
        f" supported: json scalars/containers,"
        f" {', '.join(c.__name__ for c in _VALUE_TYPES.values())}"
    )


def decode_value(payload: str) -> Any:
    """Inverse of :func:`encode_value`; a payload it did not write
    raises :class:`StoreError` naming what is wrong with it."""
    try:
        wrapped = json.loads(payload)
        kind, data = wrapped["kind"], wrapped["data"]
    except (TypeError, ValueError, KeyError) as exc:
        raise StoreError(
            f"stored value is not a JSON {{kind, data}} object"
            f" ({type(exc).__name__}: {exc}): {payload!r:.80}"
        ) from None
    if kind == "json":
        return data
    cls = _VALUE_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise StoreError(f"unknown stored value kind {kind!r}")
    if not isinstance(data, dict):
        raise StoreError(f"stored {kind} value is not an object: {data!r:.80}")
    types = _FIELD_TYPES[kind]
    data = {k: v for k, v in data.items() if k in types}
    for name, value in data.items():
        accepted = types[name]
        if accepted is not None and (
            not isinstance(value, accepted)
            or (isinstance(value, bool) and bool not in accepted)
        ):
            raise StoreError(
                f"stored {kind} field {name!r} is not"
                f" {accepted[-1].__name__}: {value!r:.80}"
            )
    try:
        # Validation warnings are nested dataclasses: JSON flattens them
        # to dicts, so rebuild the records for a bit-equal round-trip.
        if "warnings" in data:
            data["warnings"] = tuple(
                ValidationWarning(**w) for w in data["warnings"] or ()
            )
        return cls(**data)
    except TypeError as exc:
        raise StoreError(
            f"stored {kind} value does not fit {cls.__name__}: {exc}"
        ) from None


@dataclass
class StoredResult:
    """One cached check result with its provenance."""

    key: str
    scenario: Any
    family: Optional[str]
    formula: str
    backend: str
    config: Any
    value: Any
    seconds: float
    samples: int
    extra: Dict[str, Any] = field(default_factory=dict)
    created: float = 0.0
    updated: float = 0.0
    hits: int = 0
    salt: str = ""

    @property
    def metric(self) -> Optional[float]:
        """The trendable scalar inside :attr:`value` (``None`` if none)."""
        return numeric_value(self.value)

    @property
    def warnings(self) -> Tuple[ValidationWarning, ...]:
        """What :func:`~repro.resilience.validate_guarantee` finds wrong
        with :attr:`value` as an answer to :attr:`formula`."""
        return validate_guarantee(self.value, formula=self.formula)

    def describe(self) -> str:
        """One human-readable block: identity, salt, value, provenance."""
        value = self.value
        shown = f"{value:.6g}" if isinstance(value, float) else repr(value)
        return (
            f"{self.family or '?'} {canonical(self.scenario)}\n"
            f"  formula: {self.formula}   backend: {self.backend}\n"
            f"  salt: {self.salt or '?'}   key: {self.key[:16]}...\n"
            f"  value: {shown}   ({self.seconds:.3f}s,"
            f" {self.samples} samples, {self.hits} hits served)"
        )


@dataclass
class StoreStats:
    """Aggregate view of one store file (the ``store stats`` CLI);
    ``salts`` counts rows per salt, in first-insertion order."""

    path: str
    salt: str
    entries: int
    families: Dict[str, int]
    backends: Dict[str, int]
    compute_seconds: float
    total_hits: int
    db_bytes: int
    schema_version: int = SCHEMA_VERSION
    salts: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        """Multi-line summary (printed verbatim by ``store stats``)."""
        fams = ", ".join(f"{k}={v}" for k, v in sorted(self.families.items()))
        backs = ", ".join(f"{k}={v}" for k, v in sorted(self.backends.items()))
        per_salt = ", ".join(
            f"{k or '?'}={v}" for k, v in sorted(self.salts.items())
        )
        return (
            f"store: {self.path} (salt {self.salt})\n"
            f"schema: v{self.schema_version}\n"
            f"entries: {self.entries}   hits served: {self.total_hits}\n"
            f"rows per salt: {per_salt or '-'}\n"
            f"families: {fams or '-'}\n"
            f"backends: {backs or '-'}\n"
            f"compute seconds banked: {self.compute_seconds:.3f}\n"
            f"db size: {self.db_bytes / 1024:.1f} KiB"
        )


_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key      TEXT PRIMARY KEY,
    scenario TEXT NOT NULL,
    family   TEXT,
    formula  TEXT NOT NULL,
    backend  TEXT NOT NULL,
    config   TEXT NOT NULL,
    payload  TEXT NOT NULL,
    seconds  REAL NOT NULL,
    samples  INTEGER NOT NULL DEFAULT 0,
    extra    TEXT NOT NULL DEFAULT '{}',
    created  REAL NOT NULL,
    updated  REAL NOT NULL,
    hits     INTEGER NOT NULL DEFAULT 0,
    salt     TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_results_family ON results (family);
CREATE INDEX IF NOT EXISTS idx_results_backend ON results (backend);
"""

#: Explicit row column order for every SELECT — robust against the
#: v1 -> v2 migration appending ``salt`` after ``hits``.
_COLUMNS = (
    "key, scenario, family, formula, backend, config, payload,"
    " seconds, samples, extra, created, updated, hits, salt"
)


class ResultStore:
    """Persistent, concurrency-safe cache of checked sweep results.

    Parameters
    ----------
    path:
        Filesystem path of the sqlite database (created on first use;
        parent directories are not created).
    salt:
        Code/version salt mixed into every key; defaults to
        ``repro/<version>/n<k>/store-v<schema>``, so upgrading the
        package, the numerics revision ``k`` (:data:`NUMERICS_REVISION`)
        or the store schema invalidates the cache wholesale.
    timeout:
        sqlite busy timeout in seconds — how long a writer waits for a
        concurrent writer's transaction before giving up.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "results.sqlite")
    >>> store = ResultStore(path)
    >>> key = store.put({"n": 8}, "P=? [ F<=10 goal ]", 0.125)
    >>> store.get({"n": 8}, "P=? [ F<=10 goal ]").value
    0.125
    >>> store.get({"n": 9}, "P=? [ F<=10 goal ]") is None
    True
    """

    def __init__(
        self,
        path: "os.PathLike[str] | str",
        *,
        salt: Optional[str] = None,
        timeout: float = 30.0,
    ) -> None:
        self.path = os.fspath(path)
        self.salt = salt if salt is not None else _default_salt()
        self.timeout = timeout
        self._init_connections()

    def _init_connections(self) -> None:
        # Lock order: ``_lock`` (the writer connection) before
        # ``_read_lock`` (the read connection and the hit buffer).
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self._read_lock = threading.Lock()
        self._reader: Optional[sqlite3.Connection] = None
        self._hits: Dict[str, int] = {}  # key -> hits not yet written

    # -- connection lifecycle -------------------------------------------------

    def _open(self) -> sqlite3.Connection:
        """A new, prepared connection to the file."""
        conn = sqlite3.connect(self.path, timeout=self.timeout, check_same_thread=False)
        # Processes opening one fresh file together can fail at once
        # with "database is locked" (the journal-mode switch does not
        # wait out the busy timeout), so retry until the timeout.
        deadline, delay = time.monotonic() + self.timeout, 0.001
        while True:
            try:
                self._prepare(conn)
                return conn
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    conn.close()
                    raise
                time.sleep(delay)
                delay = min(2 * delay, 0.05)

    def _connection(self) -> sqlite3.Connection:
        """The writer connection (``_lock`` held)."""
        if self._conn is None:
            self._conn = self._open()
        return self._conn

    @staticmethod
    def _prepare(conn: sqlite3.Connection) -> None:
        # WAL persists in the file: switch only a file not yet in it.
        if conn.execute("PRAGMA journal_mode").fetchone()[0].lower() != "wal":
            conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_SCHEMA)
        # v1 -> v2 migration: older files lack the salt column the
        # history queries group by.  Backfilled rows keep '' — their
        # keys were hashed under a v1 default salt anyway, so they
        # are history-visible but never served as warm hits.
        columns = {row[1] for row in conn.execute("PRAGMA table_info(results)")}
        if "salt" not in columns:
            conn.execute(
                "ALTER TABLE results ADD COLUMN salt TEXT NOT NULL DEFAULT ''"
            )
        conn.execute("CREATE INDEX IF NOT EXISTS idx_results_salt ON results (salt)")
        conn.commit()

    def close(self) -> None:
        """Write buffered hit counts, then close both sqlite connections
        (reopened lazily on next use)."""
        with self._lock:
            if self._conn is not None or self._hits:
                conn = self._connection()
                self._flush_hits(conn)
                conn.commit()
                conn.close()
                self._conn = None
            with self._read_lock:
                if self._reader is not None:
                    self._reader.close()
                    self._reader = None

    def _flush_hits(self, conn: sqlite3.Connection) -> None:
        """Add the buffered hit counts to their rows (``_lock`` held; the
        caller commits)."""
        with self._read_lock:
            hits, self._hits = self._hits, {}
        if hits:
            conn.executemany(
                "UPDATE results SET hits = hits + ? WHERE key = ?",
                [(count, key) for key, count in hits.items()],
            )

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # Pickle by location, never by live connection: each worker process
    # of a sharded sweep reopens the file itself.
    def __getstate__(self) -> Dict[str, Any]:
        return {"path": self.path, "salt": self.salt, "timeout": self.timeout}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.path = state["path"]
        self.salt = state["salt"]
        self.timeout = state["timeout"]
        self._init_connections()

    # -- core API -------------------------------------------------------------

    def key_for(
        self, scenario: Any, formula: str, backend: str = "exact", config: Any = None
    ) -> str:
        """The row key this store uses for one logical query."""
        return make_key(self.salt, scenario, formula, backend, config or {})

    def put(
        self,
        scenario: Any,
        formula: str,
        value: Any,
        *,
        backend: str = "exact",
        config: Any = None,
        seconds: float = 0.0,
        family: Optional[str] = None,
        extra: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """Upsert one result; returns its key.

        ``samples`` provenance is lifted off the value when it carries
        a ``samples`` attribute (APMC/SPRT results, ``Guarantee``).
        Concurrent writers race safely: last writer wins the row.
        """
        extra_dict = dict(extra or {})
        if family is None:
            family = extra_dict.get("family")
        key = self.key_for(scenario, formula, backend, config)
        payload = encode_value(value)
        samples = int(getattr(value, "samples", 0) or 0)
        now = time.time()
        with self._lock:
            conn = self._connection()
            conn.execute(
                """
                INSERT INTO results
                    (key, scenario, family, formula, backend, config,
                     payload, seconds, samples, extra, created, updated,
                     hits, salt)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0, ?)
                ON CONFLICT(key) DO UPDATE SET
                    payload = excluded.payload,
                    seconds = excluded.seconds,
                    samples = excluded.samples,
                    extra = excluded.extra,
                    updated = excluded.updated,
                    salt = excluded.salt
                """,
                (
                    key,
                    canonical(scenario),
                    family,
                    formula,
                    backend,
                    canonical(config or {}),
                    payload,
                    float(seconds),
                    samples,
                    json.dumps(extra_dict, sort_keys=True),
                    now,
                    now,
                    self.salt,
                ),
            )
            self._flush_hits(conn)
            conn.commit()
        return key

    def get(
        self,
        scenario: Any,
        formula: str,
        backend: str = "exact",
        config: Any = None,
    ) -> Optional[StoredResult]:
        """Fetch one cached result, or ``None`` on a miss.

        A pure read: each hit is counted in memory, and the next write
        adds it to the row's ``hits`` (the ``store stats`` "hits
        served" figure).
        """
        results = self.get_many([(scenario, formula, backend, config)])
        return results[0]

    def get_many(
        self, queries: Sequence[Tuple[Any, str, str, Any]]
    ) -> List[Optional[StoredResult]]:
        """Batched :meth:`get`: one SELECT for a whole sweep grid.

        ``queries`` is a sequence of ``(scenario, formula, backend,
        config)`` tuples; the result list is parallel to it, ``None``
        where the store misses.  Each row found counts one hit.
        """
        if not queries:
            return []
        keys = [
            self.key_for(scenario, formula, backend, config)
            for scenario, formula, backend, config in queries
        ]
        marks = ",".join("?" * len(set(keys)))
        unique = list(dict.fromkeys(keys))
        with self._read_lock:
            if self._reader is None:
                self._reader = self._open()
            rows = self._reader.execute(
                f"SELECT {_COLUMNS} FROM results WHERE key IN ({marks})",
                unique,
            ).fetchall()
            found = {row[0]: row for row in rows}
            buffered = {key: self._hits.get(key, 0) for key in found}
            for key, count in buffered.items():
                self._hits[key] = count + 1
        results: List[Optional[StoredResult]] = []
        for key in keys:
            result = self._row_to_result(found[key]) if key in found else None
            if result is not None:
                result.hits += buffered[key]  # hits as of this read
            results.append(result)
        return results

    @staticmethod
    def _row_to_result(row: Tuple) -> StoredResult:
        (
            key, scenario, family, formula, backend, config,
            payload, seconds, samples, extra, created, updated, hits, salt,
        ) = row
        return StoredResult(
            key=key,
            scenario=json.loads(scenario),
            family=family,
            formula=formula,
            backend=backend,
            config=json.loads(config),
            value=decode_value(payload),
            seconds=seconds,
            samples=samples,
            extra=json.loads(extra),
            created=created,
            updated=updated,
            hits=hits,
            salt=salt,
        )

    # -- maintenance / introspection ------------------------------------------

    def query(
        self,
        *,
        family: Optional[str] = None,
        backend: Optional[str] = None,
        formula: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[StoredResult]:
        """Scan stored rows, newest first, with optional filters."""
        where, params = self._filters(family, backend, formula)
        sql = f"SELECT {_COLUMNS} FROM results{where} ORDER BY updated DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        with self._lock:
            conn = self._connection()
            self._flush_hits(conn)
            conn.commit()
            rows = conn.execute(sql, params).fetchall()
        return [self._row_to_result(row) for row in rows]

    # -- survey history (cross-salt) ------------------------------------------

    def history(
        self,
        scenario: Any,
        formula: str,
        backend: str = "exact",
        *,
        config: Any = None,
        salt: Optional[str] = None,
    ) -> List[StoredResult]:
        """How one logical guarantee moved across salts (versions).

        Matches rows on the stored ``(scenario, formula, backend)``
        identity *across every salt* — the inverse of :meth:`get`,
        which only ever sees the store's own salt — and returns each
        banked :class:`StoredResult` row, in insertion order.
        ``config=`` narrows to one exact backend fingerprint (pass the
        :func:`check_fingerprint` dict); by default every fingerprint's
        trajectory is returned.  ``salt=`` restricts to one version.
        """
        clauses = ["scenario = ?", "formula = ?", "backend = ?"]
        params: List[Any] = [canonical(scenario), formula, backend]
        if config is not None:
            clauses.append("config = ?")
            params.append(canonical(config))
        if salt is not None:
            clauses.append("salt = ?")
            params.append(salt)
        sql = (
            f"SELECT {_COLUMNS} FROM results"
            f" WHERE {' AND '.join(clauses)} ORDER BY rowid"
        )
        with self._lock:
            rows = self._connection().execute(sql, params).fetchall()
        return [self._row_to_result(row) for row in rows]

    def compare(
        self,
        salt_a: str,
        salt_b: str,
        *,
        tolerance: float = DRIFT_TOLERANCE,
        family: Optional[str] = None,
    ) -> SaltDiff:
        """Classified diff of two salts' rows (version A vs version B).

        Each logical key — ``(scenario, formula, backend, config)`` —
        present under either salt is classified as ``unchanged``,
        ``drifted`` (see :func:`repro.store.history.classify_pair`),
        ``appeared`` (only under ``salt_b``) or ``vanished`` (only
        under ``salt_a``).  ``family=`` narrows the comparison to one
        zoo family.
        """
        sql = f"SELECT {_COLUMNS} FROM results WHERE salt IN (?, ?)"
        params: List[Any] = [salt_a, salt_b]
        if family:
            sql += " AND family = ?"
            params.append(family)
        with self._lock:
            rows = self._connection().execute(sql, params).fetchall()
        diff = SaltDiff(salt_a=salt_a, salt_b=salt_b, tolerance=tolerance)
        for group in guarantees(self._row_to_result(row) for row in rows):
            by_salt = {row.salt: row for row in group}
            diff.add(by_salt.get(salt_a), by_salt.get(salt_b))
        return diff

    def invalidate(
        self,
        *,
        family: Optional[str] = None,
        backend: Optional[str] = None,
        formula: Optional[str] = None,
    ) -> int:
        """Delete matching rows (all rows when no filter); returns count."""
        where, params = self._filters(family, backend, formula)
        with self._lock:
            conn = self._connection()
            cursor = conn.execute(f"DELETE FROM results{where}", params)
            conn.commit()
        return cursor.rowcount

    @staticmethod
    def _filters(
        family: Optional[str], backend: Optional[str], formula: Optional[str]
    ) -> Tuple[str, List[Any]]:
        clauses, params = [], []
        for column, value in (
            ("family", family), ("backend", backend), ("formula", formula)
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        return (" WHERE " + " AND ".join(clauses)) if clauses else "", params

    def stats(self) -> StoreStats:
        """Aggregate counters for the whole store file."""
        with self._lock:
            conn = self._connection()
            self._flush_hits(conn)
            conn.commit()
            entries, seconds, hits = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(seconds), 0),"
                " COALESCE(SUM(hits), 0) FROM results"
            ).fetchone()
            families = dict(
                conn.execute(
                    "SELECT COALESCE(family, '?'), COUNT(*) FROM results"
                    " GROUP BY family"
                ).fetchall()
            )
            backends = dict(
                conn.execute(
                    "SELECT backend, COUNT(*) FROM results GROUP BY backend"
                ).fetchall()
            )
            salts = dict(
                conn.execute(
                    "SELECT salt, COUNT(*) FROM results GROUP BY salt"
                    " ORDER BY MIN(rowid)"
                ).fetchall()
            )
        try:
            db_bytes = os.path.getsize(self.path)
        except OSError:
            db_bytes = 0
        return StoreStats(
            path=self.path,
            salt=self.salt,
            entries=entries,
            families=families,
            backends=backends,
            compute_seconds=seconds,
            total_hits=hits,
            db_bytes=db_bytes,
            schema_version=SCHEMA_VERSION,
            salts=salts,
        )

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._connection().execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
        return count

    def __repr__(self) -> str:
        return f"ResultStore({self.path!r}, salt={self.salt!r})"
