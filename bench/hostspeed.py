"""Host-speed reference, so timings survive load from other tenants.

On a shared host the same Python code runs up to ~1.9x slower for
stretches of tens of seconds, and neither repetition nor taking the
fastest of several passes removes that. A fixed pure-Python kernel
with the simulator's mix of work (frozen dataclasses, dict and set
building, sorting, f-strings) slows by nearly the same factor, so the
benchmark times it every few tens of milliseconds and scales each
measured span by REF_S / (the kernel's time near that span). The
result reads as seconds on the reference host (a 2-core 2.1 GHz VM,
Python 3.11) when it is not contended; the raw figures are printed
beside it.

The kernel must never change: a change would move every normalised
figure. It imports nothing from the simulator.
"""
from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass, replace
from time import perf_counter

REF_S = 0.0021   # the kernel's median time on the idle reference host
EVERY_S = 0.05   # wall time between samples while a span is timed


@dataclass(frozen=True)
class _Row:
    a: int
    b: int
    c: str


def kernel() -> int:
    total = 0
    for _ in range(3):
        rows = {}
        for i in range(300):
            row = _Row(i, i * 7 % 13, f"n{i % 17}")
            rows[(row.c, row.b)] = replace(row, a=row.a + 1) if i % 3 else row
        wide = {k for k in rows if k[1] > 3}
        head = sorted(rows.items())[:60]
        text = "".join(f"{k[0]}:{v.a};" for k, v in head)
        low = min((v.a for v in rows.values() if v.b == 5), default=0)
        total += len(wide) + len(text) + low + len(frozenset(rows) & wide)
    return total


def sample() -> float:
    """Seconds the kernel takes now.

    The collector is off meanwhile: a collection would traverse the
    simulator's heap and tie the sample to the workload's memory.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factors(samples: list) -> list:
    """Per-sample slowdown, each the median of it and its neighbours."""
    return [statistics.median(samples[max(0, i - 1):i + 2]) / REF_S
            for i in range(len(samples))]
