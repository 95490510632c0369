"""GraphSAINT-style mini-batch RGCN training (paper §II-B).

Each epoch samples a subgraph with an in-memory random-walk sampler —
uniform roots ("urw", GraphSAINT's default) or target-biased roots
("brw", the paper's Algorithm 1 used as a per-epoch sampler) — and takes
one RGCN step on the induced edge subset, supervising only the training
vertices that landed in the sample. This reproduces the paper's key
training dynamic: with uniform sampling over the full graph, few target
vertices appear per batch (Fig. 2), so a fixed epoch budget converges
slower than the same trainer on KG'.

The in-memory sampler intentionally mirrors the distributed extractors in
``repro.core`` at the scale GraphSAINT itself operates (per-epoch, on the
already-loaded adjacency).
"""
from __future__ import annotations

import numpy as np

from repro.gnn.encoding import EdgeTable, EncodedGraph
from repro.gnn.rgcn import RGCN


def _walk_sample(
    enc: EncodedGraph, roots: np.ndarray, h: int, rng: np.random.Generator
) -> np.ndarray:
    """Visited-vertex set of length-``h`` uniform walks from ``roots``."""
    indptr, nbrs = enc.csr()
    visited = [roots]
    frontier = roots
    for _ in range(h):
        degs = indptr[frontier + 1] - indptr[frontier]
        alive = degs > 0
        frontier = frontier[alive]
        degs = degs[alive]
        if len(frontier) == 0:
            break
        pick = indptr[frontier] + (rng.random(len(frontier)) * degs).astype(np.int64)
        frontier = nbrs[pick]
        visited.append(frontier)
    return np.unique(np.concatenate(visited))


def _induced_edges(enc: EncodedGraph, nodes: np.ndarray) -> EdgeTable:
    """The rows of the edge table with both endpoints in ``nodes`` (global
    ids kept, so model parameters stay shared across epochs)."""
    mask = np.zeros(enc.n_nodes, dtype=bool)
    mask[nodes] = True
    keep = mask[enc.edges.src] & mask[enc.edges.dst]
    return EdgeTable(*(a[keep] for a in enc.edges))


def train_saint(
    enc: EncodedGraph,
    *,
    sampler: str = "urw",
    epochs: int = 30,
    roots_per_epoch: int = 200,
    walk_h: int = 2,
    dim: int = 32,
    lr: float = 1e-2,
    seed: int = 0,
) -> dict:
    """Mini-batch training; ``sampler`` is "urw" (uniform roots) or "brw"
    (roots drawn from labelled training targets). Returns the model, final
    split accuracies and the per-epoch loss history.

    ``sampler="urw", roots_per_epoch=enc.n_nodes, walk_h=0`` is the paper's
    full-batch "RGCN": every vertex is a root, so each step sees the whole
    graph and supervises every training vertex. An epoch whose sample holds
    no training vertex takes no step and records a NaN loss."""
    if sampler not in ("urw", "brw"):
        raise ValueError(f"unknown sampler {sampler!r}")
    rng = np.random.default_rng(seed)
    model = RGCN(enc, dim=dim, seed=seed)
    train_idx = np.flatnonzero(enc.masks["train"])
    root_pool = np.arange(enc.n_nodes) if sampler == "urw" else train_idx
    history = []
    for _ in range(epochs):
        roots = rng.choice(root_pool, min(roots_per_epoch, len(root_pool)), replace=False)
        nodes = _walk_sample(enc, roots, walk_h, rng)
        edges = _induced_edges(enc, nodes)
        in_sample = np.zeros(enc.n_nodes, dtype=bool)
        in_sample[nodes] = True
        batch_idx = train_idx[in_sample[train_idx]]
        if len(batch_idx) == 0:
            history.append(float("nan"))
            continue
        loss, grads = model.loss_and_grads(batch_idx, edges=edges)
        model.adam_step(grads, lr=lr)
        history.append(loss)
    logits = model.forward()
    return {
        "model": model,
        "loss_history": history,
        "accuracy": {s: model.accuracy(s, logits) for s in ("train", "valid", "test")},
        "n_params": model.n_params,
    }
