"""The random walk of Algorithm 1 (BRW, and URW, which is BRW rooted at
every vertex).

A walk of ``bs`` walkers and ``h`` steps visits at most ``bs·(h+1)``
vertices, so the steps run on the driver, as GraphSAINT samples its walks:
the undirected edge table is collected once, and each step moves every
walker to one uniformly random neighbour. Walkers stranded on isolated
vertices stop, matching GraphSAINT's sampler.

The draws are Spark's own. Step ``t`` gives every candidate ``(walker,
neighbour)`` one double of ``rand(seed + 1000·t)`` in one partition, in the
order a sort-merge join of the frontier against the edge table emits them:
by frontier vertex id, then walker number, then the edge's row in the
collected table, and each walker moves to its candidate with the smallest
draw. That is the walk a Spark step loop (join, ``rand()``, per-walker
``row_number``) makes when its join runs in one partition, as it does at
test scale; when adaptive execution splits the join into several
partitions, Spark's draws follow the partition sizes and the two walks
differ.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.subgraph import collect_ids
from repro.kg.schema import KG

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1


def _murmur3_bytes(data: bytes, seed: int) -> int:
    """Scala's ``MurmurHash3.bytesHash`` of ``data`` (a multiple of 4
    bytes), as an unsigned 32-bit value."""

    def rotl(x: int, r: int) -> int:
        return ((x << r) | (x >> (32 - r))) & _M32

    h = seed & _M32
    for i in range(0, len(data), 4):
        k = int.from_bytes(data[i : i + 4], "little")
        k = rotl(k * 0xCC9E2D51 & _M32, 15) * 0x1B873593 & _M32
        h = (rotl(h ^ k, 13) * 5 + 0xE6546B64) & _M32
    h ^= len(data)
    h = (h ^ (h >> 16)) * 0x85EBCA6B & _M32
    h = (h ^ (h >> 13)) * 0xC2B2AE35 & _M32
    return h ^ (h >> 16)


class SparkRand:
    """The doubles of Spark's ``rand(seed)`` in partition 0: a port of
    ``org.apache.spark.util.random.XORShiftRandom`` and
    ``java.util.Random.nextDouble``. ``rand(seed)`` seeds partition ``i``
    with ``seed + i``."""

    def __init__(self, seed: int):
        data = (seed & _M64).to_bytes(8, "big")
        low = _murmur3_bytes(data, 0x3C074A61)  # MurmurHash3.arraySeed
        self._x = _murmur3_bytes(data, low) << 32 | low

    def doubles(self, n: int) -> np.ndarray:
        x, out = self._x, []
        for _ in range(n):
            x ^= x << 21 & _M64
            x ^= x >> 35
            x ^= x << 4 & _M64
            hi = x & 0x3FFFFFF  # next(26)
            x ^= x << 21 & _M64
            x ^= x >> 35
            x ^= x << 4 & _M64
            out.append(hi << 27 | x & 0x7FFFFFF)  # next(27)
        self._x = x
        return np.array(out, dtype=np.int64) * 2.0**-53


def sample_vertices(vertices: DataFrame, n: int, *, seed: int) -> np.ndarray:
    """Uniformly draw ``n`` ids of ``vertices`` (column ``id``) without
    replacement — ``getInitialVertices`` of Algorithm 1."""
    return collect_ids(vertices.select("id").orderBy(F.rand(seed)).limit(n))


def _edge_rows(kg: KG) -> tuple[np.ndarray, np.ndarray]:
    """``kg.undirected_edges()`` on the driver as ``(src, dst)`` arrays, in
    the row order of the persisted table (its ``distinct``'s buckets, in
    order). Unpersisted, adaptive execution merges the buckets into one
    aggregate, which emits the rows in another order."""
    edges = kg.undirected_edges().persist()
    pdf = edges.toPandas()
    edges.unpersist()
    return pdf["src"].to_numpy(np.int64), pdf["dst"].to_numpy(np.int64)


def random_walk_visited(kg: KG, roots: np.ndarray, h: int, *, seed: int) -> np.ndarray:
    """The sorted distinct ids visited by length-``h`` uniform random walks
    started at the distinct ``roots``, roots included. Walkers are numbered
    in root-id order."""
    at = np.unique(roots)
    if h == 0 or not len(at):
        return at
    src, dst = _edge_rows(kg)
    by_src = np.argsort(src, kind="stable")
    src, dst = src[by_src], dst[by_src]
    walk, visited = np.arange(len(at)), [at]
    for step in range(h):
        order = np.lexsort((walk, at))
        walk, at = walk[order], at[order]
        lo = np.searchsorted(src, at, "left")
        n = np.searchsorted(src, at, "right") - lo
        cand = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())  # edge rows
        seg = np.repeat(np.arange(len(at)), n)  # frontier row of each candidate
        best = np.lexsort((SparkRand(seed + 1000 * step).doubles(len(cand)), seg))
        best = best[np.diff(seg[best], prepend=-1) != 0]  # each walker's smallest draw
        walk, at = walk[n > 0], dst[cand[best]]
        visited.append(at)
    return np.unique(np.concatenate(visited))
