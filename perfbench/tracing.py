"""In-memory spans around calls into the package, recorded from the benchmark.

A traced run replaces public functions by attribute on the module the
caller looks them up from (``patched``), so each call opens a span with a
name, a start, an end, the enclosing span and a request id (one set-up
repeat or one query).  The originals are put back when the ``with`` block
ends, so untraced timings never pass through a wrapper.  Spans stay in
memory until ``write_jsonl`` is called at the end of the run.

Times are integer nanoseconds from ``time.perf_counter_ns``, so a span's
self time plus its children's durations equals its duration exactly.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int  # index into the span list, -1 for a root span
    request: str | None

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects spans and per-request counts for one run."""

    def __init__(self) -> None:
        # Open spans hold None; closed ones a plain (name, start, end, parent,
        # request) tuple, which is cheaper to build on the hot path than a Span.
        self._records: list[tuple | None] = []
        self._stack: list[int] = []
        self.counts: dict[tuple[str | None, str], int] = {}
        self.request: str | None = None

    @property
    def spans(self) -> list[Span]:
        """Every span, in the order the spans opened; call after they closed."""
        return [Span(*rec) for rec in self._records]

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        """fn with a span around every call; count(result) adds to the
        request's counter of the same name."""
        records, stack, clock = self._records, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(records)
            parent = stack[-1] if stack else -1
            records.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[idx] = (name, start, end, parent, self.request)
            if count is not None:
                key = (self.request, name)
                self.counts[key] = self.counts.get(key, 0) + count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path: str, header: dict) -> None:
        """One JSON header line, then one [name, start, end, parent, request] line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self._records:
                fh.write(json.dumps(rec) + "\n")


# (module, attribute, span name, optional counter on the result)
Target = tuple[object, str, str, Callable | None]


@contextmanager
def patched(tracer: Tracer, targets: list[Target]) -> Iterator[Tracer]:
    """Wrap each target attribute for the duration of the block.

    An attribute the module no longer has is skipped: its layer then
    reports zero calls.
    """
    saved = []
    try:
        for module, attr, name, count in targets:
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            kids[sp.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    out = []
    for sp, kids in zip(spans, children_of(spans)):
        covered = 0
        reach = sp.start
        for c in sorted(kids, key=lambda i: spans[i].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp.duration - covered)
    return out


def accounting_errors(spans: list[Span], selfs: list[int]) -> list[str]:
    """Spans whose self time plus children's durations is not their duration."""
    errors = []
    for i, (sp, kids) in enumerate(zip(spans, children_of(spans))):
        if selfs[i] + sum(spans[c].duration for c in kids) != sp.duration:
            errors.append(f"span {i} ({sp.name}): children overlap or leave the parent")
    return errors
