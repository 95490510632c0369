"""Wall-time and peak-memory measurement for the Table IV cost breakdown.

Training memory is the tracemalloc peak of the measured block (numpy
buffer allocations are traced through PyDataMem), reported in MB — the
FG/KG' *ratio* is the reproduced quantity, not the absolute GB of the
paper's 3TB testbed (DESIGN.md §4.6).
"""
from __future__ import annotations

import gc
import time
import tracemalloc
from contextlib import contextmanager


@contextmanager
def timed(store: dict, key: str):
    """``with timed(row, "train_s"): ...`` records elapsed seconds."""
    t0 = time.perf_counter()
    yield
    store[key] = time.perf_counter() - t0


def measured(fn, *args, **kwargs):
    """Run ``fn`` returning ``(result, seconds, peak_mb)``. Garbage is
    collected first, so the peak does not depend on what the interpreter
    holds at entry or on when its collector would next run."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    gc.collect()
    tracemalloc.reset_peak()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    if not tracing:
        tracemalloc.stop()
    return result, elapsed, peak / 2**20
