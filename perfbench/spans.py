"""In-memory spans around calls into the library, and what they add up to.

A span records one public call: its name (``<module>.<function>``), a size
key such as ``n16``, start and end in nanoseconds, the span that was open
when it started, and the item it belongs to.  Spans stay in memory and are
written out once, when the run ends.  Nothing in the library is patched:
a span exists only where the benchmark itself makes the call.
"""

from __future__ import annotations

import statistics
from dataclasses import astuple, dataclass
from time import perf_counter_ns

LAYERS = ("filters", "closed_form", "quadrature", "priors", "sampling", "serialization", "cli")


@dataclass(frozen=True)
class Span:
    name: str
    key: str
    start: int
    end: int
    parent: int | None
    item: int


class Tracer:
    """Collects spans; ``call`` times one call and returns its result."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self.item = -1

    def call(self, name: str, key: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[index] = Span(name, key, start, end, parent, self.item)

    def records(self) -> list[list]:
        """Spans as [name, key, start, end, parent, item] rows."""
        return [list(astuple(s)) for s in self.spans]


class NullTracer:
    """Same interface as Tracer, records nothing."""

    item = -1

    def call(self, name, key, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def self_times(spans: list[Span]) -> list[int]:
    """Duration of each span minus the time its direct children cover.

    Children of one span run one after another, never overlapping, so
    their durations add up.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_self_share(spans: list[Span], wall_ns: int, items: set[int]) -> dict[str, float]:
    """Each layer's self time in the given items, as a share of their wall time."""
    totals = dict.fromkeys(LAYERS, 0)
    for s, own in zip(spans, self_times(spans)):
        layer = s.name.split(".", 1)[0]
        if layer in totals and s.item in items:
            totals[layer] += own
    return {layer: totals[layer] / wall_ns for layer in LAYERS}


def per_item(spans: list[Span], name: str, key: str | None) -> list[tuple[int, int]]:
    """(total nanoseconds, call count) per item, for spans of one name and key.

    A key of None takes the spans of every key.
    """
    acc: dict[int, list[int]] = {}
    for s in spans:
        if s.name == name and key in (None, s.key):
            slot = acc.setdefault(s.item, [0, 0])
            slot[0] += s.end - s.start
            slot[1] += 1
    return list(map(tuple, acc.values()))


def median_item_ms(spans: list[Span], name: str, key: str | None) -> float | None:
    """Median over items of the time one item spends in the named call."""
    rows = per_item(spans, name, key)
    return statistics.median(t for t, _ in rows) / 1e6 if rows else None


def median_call_us(spans: list[Span], name: str, key: str | None) -> float | None:
    """Median over items of the mean time per call of the named function."""
    rows = per_item(spans, name, key)
    return statistics.median(t / c for t, c in rows) / 1e3 if rows else None
