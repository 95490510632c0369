"""Influence-based sampling — the paper's Algorithm 2.

The influence score (Eq. 3, an embedding-sensitivity measure) is
approximated with Personalized PageRank from the target vertices, as the
paper does ("adapts the PPR [38] to approximate an influence score"):
batched-seed power iteration ``p_{t+1} = alpha * seed + (1 - alpha) *
A_norm^T p_t`` over the undirected KG, pruning scores below ``eps`` every
round (the epsilon of the paper's O(N_out / (eps * alpha)) bound). The
iteration runs in numpy on the driver over one collection of the KG's
``(s, o)`` pairs, the same edge set the walker collects; the mass is at
most 1, so at most 1/eps vertices survive a round, which bounds the
arithmetic, not what is collected.
Top-k keeps the ``k * bs`` most influential non-targets (global, not
per-target pairs — DESIGN.md §4.4); KG' is the induced subgraph over
seeds + influential targets + chosen neighbours.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.core.subgraph import collect_ids, induced_subgraph
from repro.core.walks import sample_vertices
from repro.kg.schema import KG


def ppr(kg: KG, seed_rows: np.ndarray, *, alpha: float, eps: float, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted ids and their PPR scores; each distinct seed id starts with
    mass ``1 / len(seed_rows)``. The KG is collected once, as sorted
    distinct rows ``(src, dst, deg(src))`` of its undirected edges. The
    walk divides by degree (no reciprocal): top-k cuts see the last bit."""
    so = kg.triples.select("s", "o").toPandas().to_numpy(np.int64)
    pairs = np.unique(np.concatenate([so, so[:, ::-1]]), axis=0)
    _, inv, deg = np.unique(pairs[:, 0], return_inverse=True, return_counts=True)
    adj = np.column_stack([pairs, deg[inv]])
    p0, mass = np.unique(seed_rows), 1.0 / max(1, len(seed_rows))
    ids, score = p0, np.full(len(p0), mass)
    for _ in range(iters):
        out = adj[np.isin(adj[:, 0], ids)]
        m = score[np.searchsorted(ids, out[:, 0])] / out[:, 2]
        ids = np.union1d(p0, out[:, 1])
        walk = np.bincount(np.searchsorted(ids, out[:, 1]), weights=m, minlength=len(ids))
        score = alpha * np.where(np.isin(ids, p0), mass, 0.0) + (1 - alpha) * walk
        ids, score = ids[score >= eps], score[score >= eps]
    return ids, score


def ibs_sample(
    kg: KG,
    targets: DataFrame,
    *,
    bs: int,
    k: int = 16,
    alpha: float = 0.25,
    eps: float = 2e-4,
    iters: int = 10,
    seed: int = 0,
) -> KG:
    """Algorithm 2: PPR from ``bs`` sampled targets, keep influential
    targets plus the top ``k*bs`` influential non-targets, induce KG'."""
    seeds = sample_vertices(targets, bs, seed=seed)
    ids, score = ppr(kg, seeds, alpha=alpha, eps=eps, iters=iters)
    is_target = np.isin(ids, collect_ids(targets))
    others = np.flatnonzero(~is_target)
    top = others[np.lexsort((ids[others], -score[others]))[: k * bs]]
    chosen = np.unique(np.concatenate([seeds, ids[is_target], ids[top]]))
    return induced_subgraph(kg, chosen, name=f"{kg.name}-IBS")
