"""Outside-in layer tracing: wrap public functions, accumulate spans.

Each wrapped function is replaced, at the name its caller looks up, by
a wrapper that times the call with two clock reads and charges the
span to the enclosing wrapped call, so a layer's self time is its span
minus the spans of the wrapped calls it made. Spans are folded into
per-label totals in memory as they close; nothing is written until the
benchmark prints its results.
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Stat:
    __slots__ = ("calls", "total", "child", "useful")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.useful = 0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stats: dict = {}
        self._stack: list = []   # child-span time of each open span
        self._targets: list = []

    def add(self, owner, attr: str, label: str, useful=None, pre=None):
        """Register owner.attr (a module or class attribute) for wrapping.

        useful(args, result, before) marks a call's outcome as useful;
        before is pre(args), read just ahead of the call.
        """
        self.stats[label] = Stat()
        self._targets.append((owner, attr, label, useful, pre))

    def _wrap(self, fn, stat: Stat, useful, pre):
        clock = self.clock
        stack = self._stack

        def wrapper(*args, **kwargs):
            before = pre(args) if pre is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stat.calls += 1
                stat.total += span
                stat.child += stack.pop()
                if stack:
                    stack[-1] += span
            if useful is not None and useful(args, result, before):
                stat.useful += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.__init__()

    @contextmanager
    def installed(self):
        """Wrap every registered target for the duration of the block."""
        saved = []
        try:
            for owner, attr, label, useful, pre in self._targets:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr,
                        self._wrap(fn, self.stats[label], useful, pre))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self._stack.clear()
