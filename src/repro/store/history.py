"""Cross-salt history: how one guarantee moved across versions.

The store's cache-key contract makes the ``salt`` the code/version
axis: every row is banked under the salt its store was opened with, so
one sqlite file accumulates the *same* logical guarantee — identical
``(scenario, formula, backend, config)`` — once per code version.
This module reads that axis back from banked rows
(:class:`~repro.store.StoredResult`):

* :func:`guarantees` — rows grouped into logical guarantees, each in
  version order (what :meth:`ResultStore.compare` and
  :func:`repro.history.trend_report` both fold);
* :class:`DiffEntry` / :class:`SaltDiff` — the classified comparison
  of two salts' rows (what :meth:`ResultStore.compare` returns): each
  shared logical key is ``unchanged``, ``drifted`` (the one drift
  rule, :func:`classify_pair`), ``appeared`` or ``vanished``.

Pure data + classification logic; the SQL lives in
:mod:`repro.store.result_store` and the trend analytics built on top
in :mod:`repro.history`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..resilience.validate import numeric_value

__all__ = [
    "DRIFT_TOLERANCE",
    "DiffEntry",
    "SaltDiff",
    "relative_drift",
    "classify_pair",
    "guarantees",
]

#: Default relative tolerance separating float round-off from a real
#: drift — generous enough for cross-platform linear-algebra noise,
#: tight enough to flag any re-tuned constant or changed seed stream.
DRIFT_TOLERANCE = 1e-6


def relative_drift(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """Relative change from ``a`` to ``b``; ``None`` when incomparable.

    ``|b - a| / max(|a|, |b|)`` — symmetric, defined at zero (two
    zeros drift by 0.0), and scale-free so BERs at 1e-9 and
    probabilities at 0.99 share one tolerance.  A move to or from a
    non-finite value drifts by ``inf``; two NaNs drift by 0.0.
    """
    if a is None or b is None:
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def guarantees(rows: Iterable[Any]) -> List[List[Any]]:
    """Rows grouped by ``(scenario, formula, backend, config)``: one
    list per guarantee, each in ``(created, salt)`` order, which is
    version order (an upsert keeps ``created``), and the lists in the
    order of their first rows.
    """
    from .result_store import canonical

    groups: Dict[Tuple[str, str, str, str], List[Any]] = {}
    for row in sorted(rows, key=attrgetter("created", "salt")):
        ident = (
            canonical(row.scenario), row.formula, row.backend,
            canonical(row.config),
        )
        groups.setdefault(ident, []).append(row)
    return list(groups.values())


def classify_pair(
    value_a: Any, value_b: Any, tolerance: float = DRIFT_TOLERANCE
) -> Tuple[str, Optional[float]]:
    """``("unchanged" | "drifted", relative drift)`` for two values.

    Numeric values (after :func:`~repro.resilience.numeric_value`
    unwrapping) drift when :func:`relative_drift` exceeds
    ``tolerance``, so a move to or from a non-finite value always does;
    non-numeric values compare by equality of their store encoding and
    drift with ``None`` as the magnitude.
    """
    drift = relative_drift(numeric_value(value_a), numeric_value(value_b))
    if drift is not None:
        return ("drifted" if drift > tolerance else "unchanged"), drift
    from .result_store import encode_value

    try:
        same = encode_value(value_a) == encode_value(value_b)
    except Exception:  # noqa: BLE001 - unencodable: fall back to ==
        same = value_a == value_b
    return ("unchanged" if same else "drifted"), None


@dataclass
class DiffEntry:
    """One logical guarantee's fate between two salts.

    ``status`` is ``"unchanged"``, ``"drifted"``, ``"appeared"`` (only
    under the second salt) or ``"vanished"`` (only under the first);
    ``drift`` is the relative change for numeric drifts, else ``None``.
    """

    scenario: Any
    formula: str
    backend: str
    config: Any
    status: str
    family: Optional[str] = None
    value_a: Any = None
    value_b: Any = None
    drift: Optional[float] = None

    def describe(self) -> str:
        """One human line: identity, status, and the values involved."""
        ident = f"{self.family or '?'} {json.dumps(self.scenario, default=repr)}"
        ident += f" {self.formula!r} [{self.backend}]"
        if self.status == "drifted":
            shown = (
                f"{self.drift:.3%}" if self.drift is not None else "non-numeric"
            )
            return (
                f"DRIFT  {ident}: {_short(self.value_a)} -> "
                f"{_short(self.value_b)} ({shown})"
            )
        if self.status == "appeared":
            return f"NEW    {ident}: {_short(self.value_b)}"
        if self.status == "vanished":
            return f"GONE   {ident}: {_short(self.value_a)}"
        return f"same   {ident}: {_short(self.value_a)}"


def _short(value: Any) -> str:
    metric = numeric_value(value)
    return f"{metric:.6g}" if metric is not None else repr(value)


@dataclass
class SaltDiff:
    """Classified comparison of every row under two salts.

    Produced by :meth:`repro.store.ResultStore.compare`; the four
    lists partition the union of both salts' logical keys.
    """

    salt_a: str
    salt_b: str
    tolerance: float
    unchanged: List[DiffEntry] = field(default_factory=list)
    drifted: List[DiffEntry] = field(default_factory=list)
    appeared: List[DiffEntry] = field(default_factory=list)
    vanished: List[DiffEntry] = field(default_factory=list)

    def add(self, a: Any, b: Any) -> None:
        """File one guarantee from its rows under :attr:`salt_a` and
        :attr:`salt_b`; either may be ``None`` (appeared / vanished)."""
        base = a or b
        entry = DiffEntry(
            scenario=base.scenario,
            formula=base.formula,
            backend=base.backend,
            config=base.config,
            family=base.family,
            status="appeared" if a is None else "vanished",
            value_a=a.value if a else None,
            value_b=b.value if b else None,
        )
        if a is not None and b is not None:
            entry.status, entry.drift = classify_pair(
                a.value, b.value, self.tolerance
            )
        # Each status names the list that holds its entries.
        getattr(self, entry.status).append(entry)

    @property
    def entries(self) -> List[DiffEntry]:
        """Every entry, drifts first (the ones a reader acts on)."""
        return self.drifted + self.appeared + self.vanished + self.unchanged

    @property
    def has_drift(self) -> bool:
        """True when any shared guarantee moved beyond the tolerance."""
        return bool(self.drifted)

    @property
    def max_drift(self) -> float:
        """Largest relative drift among the drifted entries (0.0 if none)."""
        drifts = [e.drift for e in self.drifted if e.drift is not None]
        return max(drifts, default=0.0)

    def describe(self) -> str:
        """Multi-line report: header, counts, then one line per entry."""
        lines = [
            f"diff {self.salt_a!r} -> {self.salt_b!r}"
            f" (tolerance {self.tolerance:g}):"
            f" {len(self.drifted)} drifted, {len(self.appeared)} appeared,"
            f" {len(self.vanished)} vanished, {len(self.unchanged)} unchanged"
        ]
        lines.extend(entry.describe() for entry in self.entries)
        return "\n".join(lines)
