"""Spans and counters recorded from outside the program.

A Tracer replaces module attributes with timing wrappers for the length
of one traced iteration and puts the originals back afterwards, so the
untraced iterations run the program unmodified. A wrapper must replace
the name where the caller looks it up: ``tdl.model`` imports the ``nn``
and ``tconv`` primitives by name, so those are patched on ``tdl.model``.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """In-memory span logs, one per traced iteration.

    A span is (name, start, end, parent), parent being the index of the
    enclosing span in the same log or -1. Calls are assumed to come from
    one thread, which holds for the benchmark's workloads (``tdl eval``
    runs at its default of one thread), so a plain stack gives each span
    its parent.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.iterations = []  # (iteration number, spans, counts)
        self._stack = []
        self._patched = []

    def install(self, probes, iteration: int) -> None:
        """Patch every probe for one iteration.

        ``probes`` holds (module, attribute, name, counter) rows, where
        counter is None or fn(counts, args, result) for count updates.
        A row whose name is None records counts without a span.
        """
        spans, counts = [], Counter()
        self.iterations.append((iteration, spans, counts))
        for module_name, attr, name, counter in probes:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            if name is None:
                wrapped = _counting(original, counter, counts)
            else:
                wrapped = _timing(original, name, counter, spans, counts,
                                  self._stack)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def write(self, path) -> None:
        """Tab-separated spans, one per line, times in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("workload\titeration\tindex\tname\tstart\tend\tparent\n")
            for iteration, spans, _ in self.iterations:
                fh.writelines(
                    f"{self.workload}\t{iteration}\t{i}\t{n}\t{s:.9f}\t{e:.9f}\t{p}\n"
                    for i, (n, s, e, p) in enumerate(spans)
                )


def _timing(fn, name, counter, spans, counts, stack):
    def wrapper(*args, **kwargs):
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent)
        counts[name] += 1
        if counter is not None:
            counter(counts, args, result)
        return result

    return wrapper


def _counting(fn, counter, counts):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        counter(counts, args, result)
        return result

    return wrapper


def totals(spans) -> dict:
    """Inclusive seconds per span name."""
    out = defaultdict(float)
    for name, start, end, _ in spans:
        out[name] += end - start
    return dict(out)


def self_times(spans) -> dict:
    """Seconds per span name not covered by the span's own children."""
    child_time = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        out[name] += end - start - child_time[index]
    return dict(out)


def durations(spans, name: str) -> list:
    return [end - start for n, start, end, _ in spans if n == name]
