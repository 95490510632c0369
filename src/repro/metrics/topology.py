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

Every KG′ scored here is a sample bounded by bs·h or by the TOSG, so each
indicator collects it once to the driver (as training does) and works on
an undirected CSR in numpy instead of chaining small Spark jobs.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pandas as pd
from numpy.typing import ArrayLike
from pyspark.sql import DataFrame

from repro.kg.schema import KG


class _Collected(NamedTuple):
    """KG′ on the driver. Vertex positions follow the row order of
    ``kgp.nodes``, which seeds the source draw of
    ``avg_distance_to_targets``."""

    nodes: pd.DataFrame  # id, ntype
    triples: pd.DataFrame  # s, p, o
    indptr: np.ndarray  # undirected CSR over vertex positions
    nbrs: np.ndarray
    in_t: np.ndarray  # target mask over vertex positions


def _collect(kgp: KG, targets: DataFrame | None = None) -> _Collected:
    """Collect ``kgp`` and the ids of ``targets`` and build the undirected
    CSR. Triples are over KG′'s vertices (Definition 2.1); one with an
    endpoint outside them has no position and is left out of the CSR."""
    nodes = kgp.nodes.select("id", "ntype").toPandas()
    triples = kgp.triples.select("s", "p", "o").toPandas()
    t_ids = [] if targets is None else targets.select("id").toPandas()["id"].to_numpy()
    ids = nodes["id"].to_numpy()
    pos = pd.Index(ids)
    s, o = pos.get_indexer(triples["s"]), pos.get_indexer(triples["o"])
    keep = (s >= 0) & (o >= 0)
    s, o = s[keep], o[keep]
    src, dst = np.concatenate([s, o]), np.concatenate([o, s])
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(len(ids) + 1))
    return _Collected(nodes, triples, indptr, dst[order], np.isin(ids, t_ids))


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


def target_disconnected_pct(kgp: KG, targets: DataFrame, *, max_hops: int = 20) -> float:
    """Table III "Target-Discon.(%)": % of non-target vertices of ``kgp``
    with no path of at most ``max_hops`` edges from a target inside
    ``kgp`` (0 when every vertex is a target, 100 when none is)."""
    g = _collect(kgp, targets)
    d = bfs(g.indptr, g.nbrs, np.flatnonzero(g.in_t), max_hops)
    n_non = int((~g.in_t).sum())
    return 100.0 * int(((d < 0) & ~g.in_t).sum()) / max(1, n_non)


def avg_distance_to_targets(
    kgp: KG, targets: DataFrame, *, n_sources: int = 8, max_hops: int = 20, seed: int = 0
) -> float:
    """Mean finite shortest-path distance over (non-target, target) pairs,
    estimated by BFS from ``n_sources`` sampled targets (NaN if no target
    reaches any non-target vertex)."""
    g = _collect(kgp, targets)
    t_pos = np.flatnonzero(g.in_t)
    if len(t_pos) == 0 or g.in_t.all():
        return float("nan")
    rng = np.random.default_rng(seed)
    srcs = rng.choice(t_pos, min(n_sources, len(t_pos)), replace=False)
    total = count = 0
    for s in srcs:
        d = bfs(g.indptr, g.nbrs, [s], max_hops)
        finite = d[(d > 0) & ~g.in_t]
        total, count = total + int(finite.sum()), count + len(finite)
    return total / count if count else float("nan")


def neighbour_type_entropy(kgp: KG) -> float:
    """Eq. 2: entropy of the per-vertex distinct-neighbour-type counts.

    For each vertex, count the distinct node types among its undirected
    neighbours (a self-loop makes a vertex its own neighbour); take the
    Shannon entropy of that count's distribution over all vertices
    (isolated vertices count 0). An empty KG′ has entropy 0.
    """
    g = _collect(kgp)
    n = len(g.nodes)
    codes, types = pd.factorize(g.nodes["ntype"])
    src = np.repeat(np.arange(n), np.diff(g.indptr))
    pairs = np.unique(src * len(types) + codes[g.nbrs])
    per_vertex = np.bincount(pairs // len(types), minlength=n)
    p = np.bincount(per_vertex) / n
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum()) + 0.0  # + 0.0 turns -0.0 into 0.0
