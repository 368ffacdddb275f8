"""In-memory spans recorded around calls into grdm, and their self times.

A span has a name, integer start and end times in ns and the index of the
span that encloses it; one op is one tree whose root is the op itself.  A
span's self time is its duration minus the part of it that its direct
children cover, so the self times of a tree add up exactly to the root's
duration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the tree's span list, -1 for the root


class Tracer:
    """Collects the spans of one op; spans nest by the order they are entered."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx] = self.spans[idx]._replace(end_ns=time.perf_counter_ns())


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Self time of every span, in the order of `spans`."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start_ns, s.end_ns))
    return [s.end_ns - s.start_ns - _covered_ns(children[i]) for i, s in enumerate(spans)]


def self_times_by_name(spans: list[Span]) -> dict[str, int]:
    """Self time in ns summed over the spans of each name."""
    out: dict[str, int] = {}
    for s, t in zip(spans, self_times_ns(spans)):
        out[s.name] = out.get(s.name, 0) + t
    return out
