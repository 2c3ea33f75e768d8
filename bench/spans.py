"""In-memory span recorder that times a package from outside its source.

The recorder replaces module attributes with timing wrappers, so the code
under test is not edited: a call that goes through a patched attribute opens
a span, and its parent is whichever patched call is still open.  A span's self
time is its duration minus the durations of its direct children, so the self
times of every span inside a root span add up to the root's duration exactly;
summing them per layer splits a traced pass into layers plus the root's own
unattributed remainder.  Only the standard library is used.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    layer: str
    parent: Span | None
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    """Spans and counters for one traced pass; use as a context manager so
    every patched attribute is put back on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        span = Span(name, layer, self._open[-1] if self._open else None, 0.0)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def patch(self, owner, attr: str, layer: str, name, after=None) -> None:
        """Wrap ``owner.attr`` in a span.

        ``name`` is a string or ``name(args, kwargs)``; ``after(rec, span,
        args, kwargs, result)`` runs once the span has closed, to update
        counters without adding to the timed interval.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name(args, kwargs) if callable(name) else name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(self, span, args, kwargs, result)
            return result

        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Recorder:
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- summaries -----------------------------------------------------------

    def total_s(self, name: str) -> float:
        """Inclusive time of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_s_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.layer] += s.self_s
        return dict(out)

    def dump(self) -> list[dict]:
        """Spans as JSON-ready records, times relative to the first span."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        return [
            {
                "id": ids[id(s)],
                "parent": None if s.parent is None else ids[id(s.parent)],
                "name": s.name,
                "layer": s.layer,
                "start_s": s.start - t0,
                "end_s": s.end - t0,
                "self_s": s.self_s,
            }
            for s in self.spans
        ]
