"""Spans recorded from outside the program, by wrapping module attributes.

No source file of the program is edited: ``Tracer.patched`` swaps a public
function on its module (or class) for a timing wrapper and puts the
original back on exit. Spans stay in memory and are written once, at the
end of a run; self time per layer is computed from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.run_id = "setup"
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "run": self.run_id}
                )

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[(self.run_id, name)] += amount

    def _timed(self, name, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result, args)
            return result

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each ``(owner, attribute, name[, on_result | "count"])``.

        A target with "count" only counts calls (for functions called per
        batch or per step, where a span would cost more than the call);
        ``on_result(tracer, result, args)`` records counters from a result.
        """
        saved = []
        try:
            for owner, attribute, name, *extra in targets:
                hook = extra[0] if extra else None
                original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
                fn = getattr(owner, attribute)
                wrapped = self._counted(name, fn) if hook == "count" else self._timed(name, fn, hook)
                if isinstance(owner, type):
                    wrapped = staticmethod(wrapped)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, wrapped)
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def self_times(self, run_id) -> dict[str, float]:
        """Per-name self time of one run: span duration minus its children."""
        spans = [s for s in self.spans if s["run"] == run_id]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = defaultdict(float)
        for s in spans:
            totals[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(totals)

    def run_counters(self, run_id) -> dict[str, float]:
        return {name: value for (run, name), value in self.counters.items() if run == run_id}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    @staticmethod
    def read(path) -> list[dict]:
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
