"""Guarantee service layer: the persistent check-result store.

One sqlite file turns :func:`repro.engine.sweep_check` (and the zoo
sweeps built on it) into a serving layer: every checked point is
banked with full provenance, repeated queries are cache hits, and
concurrent writer threads/processes share the file safely (WAL +
upsert).  See :mod:`repro.store.result_store` for the cache-key
contract.

>>> from repro import zoo
>>> from repro.store import ResultStore
>>> import tempfile, os
>>> store = ResultStore(os.path.join(tempfile.mkdtemp(), "g.sqlite"))
>>> cold = zoo.sweep("birth-death", {"n": [8, 12]}, "P=? [ F<=50 goal ]",
...                  store=store, executor="serial")
>>> warm = zoo.sweep("birth-death", {"n": [8, 12]}, "P=? [ F<=50 goal ]",
...                  store=store, executor="serial")
>>> [r.cached for r in cold], [r.cached for r in warm]
([False, False], [True, True])
>>> [r.value for r in warm] == [r.value for r in cold]
True
"""

from .history import (
    DRIFT_TOLERANCE,
    DiffEntry,
    HistoryPoint,
    SaltDiff,
    relative_drift,
)
from .result_store import (
    NUMERICS_REVISION,
    SCHEMA_VERSION,
    ResultStore,
    StoreError,
    StoreStats,
    StoredResult,
    canonical,
    check_fingerprint,
    decode_value,
    encode_value,
    make_key,
)

__all__ = [
    "DRIFT_TOLERANCE",
    "DiffEntry",
    "HistoryPoint",
    "NUMERICS_REVISION",
    "SCHEMA_VERSION",
    "ResultStore",
    "SaltDiff",
    "StoreError",
    "StoreStats",
    "StoredResult",
    "canonical",
    "check_fingerprint",
    "encode_value",
    "decode_value",
    "make_key",
    "relative_drift",
]
