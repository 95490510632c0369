"""Graph-topology indicators (paper §III-A, Table III right half).

- ``target_disconnected_pct``: share of non-target vertices in a sampled
  subgraph with no path to any target *within that subgraph* — such
  vertices burn aggregation iterations without ever reaching a target
  embedding. Computed with a multi-source BFS from every target.
- ``avg_distance_to_targets``: mean shortest-path distance between
  non-target vertices and (a sample of) target vertices — the paper's
  "Avg.Dist.Target". See DESIGN.md §4.7 for the pairwise interpretation.
- ``neighbour_type_entropy``: Shannon entropy (Eq. 2) of the distribution
  of per-vertex distinct-neighbour-type counts — higher means more
  diverse neighbourhoods.

Every KG′ scored here is a sample bounded by bs·h or by the TOSG, so the
indicators read its driver-side form ``KG.local()``, collected once per KG
and shared with the encoders, and work on an undirected CSR in numpy
instead of chaining small Spark jobs. Vertex positions follow the row order
of ``kgp.nodes``, which seeds the source draw of
``avg_distance_to_targets``. A triple whose endpoint is not a vertex of KG′
raises ``KeyError`` (Definition 2.1).
"""
from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike
from pyspark.sql import DataFrame

from repro.core.subgraph import collect_ids
from repro.kg.schema import KG, LocalKG

MAX_HOPS = 20  # BFS horizon of both target indicators: a longer path counts as none


def _csr(g: LocalKG) -> tuple[np.ndarray, np.ndarray]:
    return undirected_csr(g.spo[:, 0], g.spo[:, 2], len(g.ids))


def _local_and_mask(kgp: KG, targets: DataFrame) -> tuple[LocalKG, np.ndarray]:
    """``kgp.local()`` and its target mask over vertex positions."""
    g = kgp.local()
    return g, np.isin(g.ids, collect_ids(targets))


def undirected_csr(a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, nbrs)`` over vertex positions ``0..n-1`` of the edges
    ``a[i]``–``b[i]`` taken both ways. The neighbours of ``v`` are the
    other endpoints of its edges with ``a == v``, then of those with
    ``b == v``, each in edge order; ``bfs`` and SAINT's walks read these
    positions."""
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    order = np.argsort(src, kind="stable")
    return np.searchsorted(src[order], np.arange(n + 1)), dst[order]


def bfs(indptr: np.ndarray, nbrs: np.ndarray, sources: ArrayLike, max_hops: int) -> np.ndarray:
    """Hop distance from the nearest of ``sources`` (vertex positions) over
    the CSR, -1 where none is within ``max_hops``. One gather per hop."""
    dist = np.full(len(indptr) - 1, -1, dtype=np.int32)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    dist[frontier] = 0
    for hop in range(1, max_hops + 1):
        starts, lens = indptr[frontier], indptr[frontier + 1] - indptr[frontier]
        if not lens.sum():
            break
        at = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
        cand = np.unique(nbrs[at])
        frontier = cand[dist[cand] < 0]
        dist[frontier] = hop
    return dist


def target_disconnected_pct(kgp: KG, targets: DataFrame) -> float:
    """Table III "Target-Discon.(%)": % of non-target vertices of ``kgp``
    with no path of at most :data:`MAX_HOPS` edges from a target inside
    ``kgp`` (0 when every vertex is a target, 100 when none is)."""
    g, in_t = _local_and_mask(kgp, targets)
    d = bfs(*_csr(g), np.flatnonzero(in_t), MAX_HOPS)
    n_non = int((~in_t).sum())
    return 100.0 * int(((d < 0) & ~in_t).sum()) / max(1, n_non)


def avg_distance_to_targets(kgp: KG, targets: DataFrame, *, n_sources: int = 8) -> float:
    """Mean finite shortest-path distance over (non-target, target) pairs,
    estimated by BFS, up to :data:`MAX_HOPS`, from ``n_sources`` targets
    drawn by ``default_rng(0)`` (NaN if no target reaches any non-target
    vertex)."""
    g, in_t = _local_and_mask(kgp, targets)
    t_pos = np.flatnonzero(in_t)
    if len(t_pos) == 0 or in_t.all():
        return float("nan")
    indptr, nbrs = _csr(g)
    srcs = np.random.default_rng(0).choice(t_pos, min(n_sources, len(t_pos)), replace=False)
    total = count = 0
    for s in srcs:
        d = bfs(indptr, nbrs, [s], MAX_HOPS)
        finite = d[(d > 0) & ~in_t]
        total, count = total + int(finite.sum()), count + len(finite)
    return total / count if count else float("nan")


def neighbour_type_entropy(kgp: KG) -> float:
    """Eq. 2: entropy of the per-vertex distinct-neighbour-type counts.

    For each vertex, count the distinct node types among its undirected
    neighbours (a self-loop makes a vertex its own neighbour); take the
    Shannon entropy of that count's distribution over all vertices
    (isolated vertices count 0). An empty KG′ has entropy 0.
    """
    g = kgp.local()
    n, k = len(g.ids), len(g.ntype_names)
    indptr, nbrs = _csr(g)
    src = np.repeat(np.arange(n), np.diff(indptr))
    pairs = np.unique(src * k + g.ntype[nbrs])
    per_vertex = np.bincount(pairs // k, minlength=n)
    p = np.bincount(per_vertex) / n
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum()) + 0.0  # + 0.0 turns -0.0 into 0.0
