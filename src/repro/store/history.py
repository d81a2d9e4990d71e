"""Cross-salt history types: how one guarantee moved across versions.

The store's cache-key contract makes the ``salt`` the code/version
axis: every row is banked under the salt its store was opened with, so
one sqlite file accumulates the *same* logical guarantee — identical
``(scenario, formula, backend, config)`` — once per code version.
This module is the vocabulary for reading that axis back:

* :class:`HistoryPoint` — one banked value of one guarantee under one
  salt, in insertion order (what :meth:`ResultStore.history` returns);
* :class:`DiffEntry` / :class:`SaltDiff` — the classified comparison
  of two salts' rows (what :meth:`ResultStore.compare` returns): each
  shared logical key is ``unchanged``, ``drifted`` (relative change
  beyond a tolerance), ``appeared`` or ``vanished``.

Pure data + classification logic; the SQL lives in
:mod:`repro.store.result_store` and the trend analytics built on top
in :mod:`repro.history`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..resilience.validate import numeric_value

__all__ = [
    "DRIFT_TOLERANCE",
    "HistoryPoint",
    "DiffEntry",
    "SaltDiff",
    "relative_drift",
    "classify_pair",
]

#: Default relative tolerance separating float round-off from a real
#: drift — generous enough for cross-platform linear-algebra noise,
#: tight enough to flag any re-tuned constant or changed seed stream.
DRIFT_TOLERANCE = 1e-6


def relative_drift(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """Relative change from ``a`` to ``b``; ``None`` when incomparable.

    ``|b - a| / max(|a|, |b|)`` — symmetric, defined at zero (two
    zeros drift by 0.0), and scale-free so BERs at 1e-9 and
    probabilities at 0.99 share one tolerance.
    """
    if a is None or b is None:
        return None
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(b - a) / scale


@dataclass
class HistoryPoint:
    """One banked value of one logical guarantee under one salt.

    The row's provenance travels with it — ``seconds`` is the original
    compute time, ``samples`` the statistical sample count, and
    ``warnings`` the :class:`~repro.resilience.ValidationWarning`
    records the value was flagged with when it was banked.
    """

    salt: str
    value: Any
    seconds: float
    samples: int
    created: float
    config: Any = None
    key: str = ""
    warnings: Tuple[Any, ...] = ()

    @classmethod
    def of(cls, row: Any) -> "HistoryPoint":
        """One history point from a :class:`~repro.store.StoredResult`,
        its provenance preserved."""
        return cls(
            salt=row.salt,
            value=row.value,
            seconds=row.seconds,
            samples=row.samples,
            created=row.created,
            config=row.config,
            key=row.key,
            warnings=tuple(getattr(row.value, "warnings", ()) or ()),
        )

    @property
    def metric(self) -> Optional[float]:
        """The trendable scalar inside :attr:`value`
        (:func:`~repro.resilience.numeric_value`); ``None`` when it has
        none."""
        return numeric_value(self.value)

    @property
    def flagged(self) -> bool:
        """True when the banked value carried validation warnings."""
        return bool(self.warnings or getattr(self.value, "warnings", ()))

    def describe(self) -> str:
        """One human line: salt, metric, provenance."""
        metric = self.metric
        shown = f"{metric:.6g}" if metric is not None else repr(self.value)
        flags = f"  !! {len(self.warnings)} warning(s)" if self.warnings else ""
        return (
            f"{self.salt}: {shown}"
            f"  ({self.seconds:.3f}s, {self.samples} samples){flags}"
        )


def classify_pair(
    value_a: Any, value_b: Any, tolerance: float = DRIFT_TOLERANCE
) -> Tuple[str, Optional[float]]:
    """``("unchanged" | "drifted", relative drift)`` for two values.

    Numeric values (after :func:`~repro.resilience.numeric_value`
    unwrapping) drift when the relative change exceeds ``tolerance``;
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
