"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each layer *where their
callers look them up* (``zoo.pipeline`` binds ``lump`` at import,
``engine.sweep`` binds ``validate_guarantee``), so the program itself is
untouched.  Each call records one span: ``(id, parent, op, name, start,
end, counts)``.  Spans stay in a list in memory and are only read once
the run ends.

Process-pool workers are forked mid-sweep and inherit the wrappers and
the open span stack, so their spans name the parent's ``zoo.sweep``
span as parent.  They reach the parent's list by riding back on the
shard result: the wrapped shard runner returns a list that, when the
parent unpickles it, hands its spans to the parent's tracer.

A span's self time is its duration minus the part of its interval that
its child spans cover (child spans from parallel workers may overlap;
their union is what counts).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional

#: The tracer whose list receives spans shipped back from pool workers.
_ACTIVE: Optional["Tracer"] = None


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    op: Optional[int]
    name: str
    start: float
    end: float
    counts: Optional[Dict[str, Any]]


def _absorb(results: list, spans: List[Span]) -> list:
    """Unpickling hook of :class:`_Shipped`: runs in the parent."""
    if _ACTIVE is not None:
        _ACTIVE.spans.extend(Span(*span) for span in spans)
    return results


class _Shipped(list):
    """A shard's results plus the spans its worker recorded."""

    def __init__(self, results: list, spans: List[Span]) -> None:
        super().__init__(results)
        self.spans = spans

    def __reduce__(self):
        return _absorb, (list(self), [tuple(span) for span in self.spans])


class Tracer:
    """Records spans around wrapped callables while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[tuple] = []
        self._pid = os.getpid()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        *,
        count: Optional[Callable] = None,
        new_op: bool = False,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``count(args, kwargs, result)`` returns the counts stored on the
        span; ``new_op`` opens a fresh op id for the call (one per point
        or request).  An empty ``name`` records no span: the call only
        opens its op.
        """
        kwargs = kwargs or {}
        local = self._local
        outer_op = getattr(local, "op", None)
        if new_op or outer_op is None:
            local.op = (os.getpid() << 32) | next(self._ids)
        stack = self._stack()
        sid = (os.getpid() << 32) | next(self._ids)
        parent = stack[-1] if stack else None
        if name:
            stack.append(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            if name:
                stack.pop()
                counts = count(args, kwargs, result) if count and result is not None else None
                self.spans.append(Span(sid, parent, local.op, name, start, end, counts))
            local.op = outer_op

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Convenience for the benchmark's own calls (HTTP requests):
        one span, one fresh op id."""
        return self.call(name, fn, args, kwargs, new_op=True)

    # -- installing wrappers ----------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        count: Optional[Callable] = None,
        new_op: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper.  A name that is
        gone raises ``AttributeError``: a lost hook must not read as a
        layer doing no work."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, count=count, new_op=new_op)

        self._patch(owner, attr, fn, traced)

    def ship_from_workers(self, owner: Any, attr: str) -> None:
        """Make the pool's shard runner return its worker's spans."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def shipped(*args, **kwargs):
            if os.getpid() == tracer._pid:
                return fn(*args, **kwargs)
            mark = len(tracer.spans)
            results = fn(*args, **kwargs)
            spans = tracer.spans[mark:]
            del tracer.spans[mark:]
            return _Shipped(results, spans)

        self._patch(owner, attr, fn, shipped)

    def _patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        # Pool workers pickle patched functions by module + qualname, and
        # pickle insists the name resolve to the very object it is given.
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        global _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        global _ACTIVE
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        _ACTIVE = None


# -- reading a trace -------------------------------------------------------


def union_length(intervals: Iterable[tuple]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span's own interval)."""
    spans = list(spans)
    children: Dict[int, list] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.sid, ())
            if end > span.start and start < span.end
        ]
        result[span.sid] = (span.end - span.start) - union_length(clipped)
    return result


def check_self_time_arithmetic() -> None:
    """Self-check on a synthetic nested trace with overlapping children
    (two pool workers) and a child that outlives its parent."""
    spans = [
        Span(1, None, 1, "zoo.sweep", 0.0, 10.0, None),
        Span(2, 1, 2, "zoo.build", 1.0, 4.0, None),
        Span(3, 1, 3, "zoo.build", 3.0, 6.0, None),  # parallel worker
        Span(4, 2, 2, "reductions.lump", 2.0, 3.0, None),
        Span(5, 1, 4, "store.put", 8.0, 12.0, None),  # clipped at 10
    ]
    got = self_times(spans)
    want = {1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 4.0}
    for sid, value in want.items():
        if abs(got[sid] - value) > 1e-12:
            raise AssertionError(f"self time of span {sid}: {got[sid]} != {value}")
    if union_length([(0, 1), (0.5, 2), (3, 4)]) != 3.0:
        raise AssertionError("union_length of overlapping intervals")
