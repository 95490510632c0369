"""Spans around public library calls, with Spark job-group counters.

A :class:`Tracer` with ``enabled=False`` is a no-op, so the same workload
code runs untraced (end-to-end numbers) and traced (per-layer numbers).
Each span records its name, parent, start, duration, self time (duration
minus the time covered by child spans) and the counters of the Spark jobs
run in its own job group: jobs, stages, tasks, shuffle read/write bytes
and executor run time. The counters come from ``sc.statusTracker()`` and
the application status store, which are kept with ``spark.ui.enabled``
off. A span asked for ``mem=True`` also records the tracemalloc peak.

The module also reads two plan facts from outside the program: the
``Exchange`` operators sitting directly above a cached index scan, and
the bytes held by cached RDDs.
"""
from __future__ import annotations

import itertools
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

COUNTERS = ("jobs", "stages", "tasks", "shuffle_read_bytes", "shuffle_write_bytes", "executor_run_ms")


@dataclass
class Span:
    id: str  # also the Spark job group of the span's own jobs
    name: str
    parent: str | None  # id of the enclosing span
    start_s: float
    dur_s: float = 0.0
    child_s: float = 0.0
    counters: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.dur_s - self.child_s

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "self_s": self.self_s,
            **self.counters,
            **self.attrs,
        }


class Tracer:
    """Collects spans in memory; :meth:`spans` hands them out at the end."""

    def __init__(self, spark, *, enabled: bool):
        self.enabled = enabled
        self._sc = spark.sparkContext
        self._stack: list[tuple[Span, str]] = []  # open spans with their job groups
        self._done: list[Span] = []
        self._ids = itertools.count()
        self._t0 = time.perf_counter()
        self.overhead_s = 0.0  # time spent in span bookkeeping, not in the spans' blocks

    @contextmanager
    def span(self, name: str, *, mem: bool = False, **attrs):
        """Time the block; yields the :class:`Span` (``None`` when off) so
        the caller can attach result attributes."""
        if not self.enabled:
            yield None
            return
        t_in = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        group = f"perfbench-{next(self._ids)}"
        s = Span(id=group, name=name, parent=parent[0].id if parent else None,
                 start_s=time.perf_counter() - self._t0, attrs=dict(attrs))
        self._stack.append((s, group))
        self._sc.setJobGroup(group, name)
        started_tm = False
        if mem:
            started_tm = not tracemalloc.is_tracing()
            if started_tm:
                tracemalloc.start()
            tracemalloc.reset_peak()
        t = time.perf_counter()
        self.overhead_s += t - t_in
        try:
            yield s
        finally:
            t_out = time.perf_counter()
            s.dur_s = t_out - t
            if mem:
                s.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                if started_tm:
                    tracemalloc.stop()
            self._stack.pop()
            if parent:
                parent[0].child_s += s.dur_s
                self._sc.setJobGroup(parent[1], parent[0].name)
            else:
                self._sc.setLocalProperty("spark.jobGroup.id", None)
            s.counters = job_group_counters(self._sc, group)
            self._done.append(s)
            self.overhead_s += time.perf_counter() - t_out

    def spans(self) -> list[Span]:
        return list(self._done)


def job_group_counters(sc, group: str) -> dict:
    """Totals over the stages that ran for the jobs of one job group."""
    jsc = sc._jsc.sc()
    jsc.listenerBus().waitUntilEmpty()
    tracker, store = sc.statusTracker(), jsc.statusStore()
    out = dict.fromkeys(COUNTERS, 0)
    seen: set[int] = set()
    for jid in tracker.getJobIdsForGroup(group):
        info = tracker.getJobInfo(jid)
        if info is None:
            continue
        out["jobs"] += 1
        for sid in info.stageIds:
            if sid in seen:
                continue
            seen.add(sid)
            sd = store.lastStageAttempt(sid)
            if sd.status().toString() == "SKIPPED":
                continue
            out["stages"] += 1
            out["tasks"] += sd.numCompleteTasks()
            out["shuffle_read_bytes"] += sd.shuffleReadBytes()
            out["shuffle_write_bytes"] += sd.shuffleWriteBytes()
            out["executor_run_ms"] += sd.executorRunTime()
    return out


def cached_bytes(sc) -> dict[int, int]:
    """Bytes held in memory and on disk per cached RDD id."""
    return {r.id(): r.memSize() + r.diskSize() for r in sc._jsc.sc().getRDDStorageInfo()}


# -- plan shape ---------------------------------------------------------------

# Nodes that wrap an operator without being one: AQE stages, codegen.
_WRAPPERS = {"ShuffleQueryStage", "TableCacheQueryStage", "BroadcastQueryStage",
             "AQEShuffleRead", "InputAdapter", "WholeStageCodegen", "ResultQueryStage"}


def _children(node) -> list:
    name = node.nodeName()
    if name == "AdaptiveSparkPlan":
        return [node.executedPlan()]
    if name.endswith("QueryStage"):
        return [node.plan()]
    if name == "InMemoryTableScan":
        return [node.relation().cachedPlan()]
    kids = node.children()
    return [kids.apply(i) for i in range(kids.size())]


def _unwrap(node):
    while node.nodeName() in _WRAPPERS or node.nodeName().startswith("WholeStageCodegen"):
        node = _children(node)[0]
    return node


def _cache_key(df) -> object:
    """The cache builder behind a persisted DataFrame's in-memory relation."""
    rel = df._jdf.queryExecution().withCachedData()
    return rel.cacheBuilder() if rel.nodeName() == "InMemoryRelation" else None


def exchanges_above_scans(df, cached_dfs) -> int:
    """Count ``Exchange`` operators whose input is (through AQE and codegen
    wrappers only) an ``InMemoryTableScan`` of one of ``cached_dfs``, in the
    executed plan of ``df`` and of every cached plan it reads."""
    keys = [k for k in (_cache_key(d) for d in cached_dfs) if k is not None]
    count, stack = 0, [df._jdf.queryExecution().executedPlan()]
    while stack:
        node = stack.pop()
        if node.nodeName() == "Exchange":
            child = _unwrap(_children(node)[0])
            if child.nodeName() == "InMemoryTableScan" and any(
                child.relation().cacheBuilder().equals(k) for k in keys
            ):
                count += 1
        stack.extend(_children(node))
    return count
