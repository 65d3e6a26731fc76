"""In-memory spans recorded around calls into ``scpatcher``'s modules.

The traced benchmark run replaces module attributes that callers look up
(for example ``scpatcher.repair.knn``) with wrappers that open a span, call
the original and close the span. Nothing inside ``src/`` changes, and
``Tracer.restore`` puts every replaced attribute back.

A span has a name, start and end (``perf_counter_ns``), the index of its
parent span, the index of its root span (the outermost span open when it
started) and free-form attributes. A layer's self time is its duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Optional


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int = 0
    parent: Optional[int] = None
    root: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; single-threaded by design (``jobs=1``)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs: dict) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else index
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent,
                               root=root, attrs=attrs))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        index = self._open(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, owner: object, attr: str, name: str,
             on_result: Optional[Callable[[Span, tuple, object], None]] = None,
             restore: bool = True) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``on_result(span, args, result)`` may add attributes once the call
        returns. ``restore=False`` is for short-lived objects.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name, {})
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(self.spans[index], args, result)
            return result

        setattr(owner, attr, traced)
        if restore:
            self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            out.setdefault(span.parent, []).append(index)
    return out


def self_time(spans: list[Span], index: int,
              children: Optional[dict[int, list[int]]] = None) -> int:
    """Duration of ``spans[index]`` minus the union of its children's
    intervals, clipped to the span."""
    if children is None:
        children = children_of(spans)
    span = spans[index]
    covered = 0
    cursor = span.start
    for start, end in sorted((spans[c].start, spans[c].end)
                             for c in children.get(index, ())):
        start, end = max(start, cursor), min(end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered


def by_root(spans: list[Span], root_name: str) -> dict[int, list[Span]]:
    """Spans grouped under each root span called ``root_name`` (root included)."""
    groups: dict[int, list[Span]] = {
        i: [] for i, span in enumerate(spans) if span.parent is None and span.name == root_name}
    for span in spans:
        if span.root in groups:
            groups[span.root].append(span)
    return groups


def named(spans: Iterable[Span], name: str) -> list[Span]:
    return [span for span in spans if span.name == name]
