"""Transformation of a (sub)graph's RDF triples into adjacency structures —
the mandatory "Transformation Time" step of the paper's Table IV pipeline
(Fig. 4: TOSG → adjacency matrices → HGNN training).

The encoded form is a contiguous node index plus one edge table
``(src, dst, rel, norm)`` sorted by relation, with the Eq. 1 normalization
``1/|N_i^r|`` (in-degree per relation), ready for the numpy RGCN. LP tasks
get entity/relation indices plus split triple arrays and type-valid
candidate sets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.kg.schema import KG
from repro.metrics.topology import undirected_csr


class EdgeTable(NamedTuple):
    """Edges in contiguous node indices, sorted stably by relation code, so
    each relation's edges are one run of rows."""

    src: np.ndarray
    dst: np.ndarray
    rel: np.ndarray
    norm: np.ndarray  # 1 / in-degree of dst under rel

    def by_rel(self, n_rels: int) -> list[tuple[int, slice]]:
        """``(r, rows)`` of every relation with at least one edge."""
        bounds = np.searchsorted(self.rel, np.arange(n_rels + 1))
        return [(r, slice(a, b)) for r, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])) if b > a]


@dataclass
class EncodedGraph:
    """Adjacency-encoded (sub)graph for NC training."""

    node_ids: np.ndarray  # position -> original vertex id
    rel_names: list[str]
    edges: EdgeTable
    labels: np.ndarray  # -1 for unlabelled vertices
    masks: dict[str, np.ndarray]  # split -> bool array
    n_classes: int

    @property
    def target_mask(self) -> np.ndarray:
        """True for supervised-type (labelled) vertices: their input
        embeddings are frozen at zero so the model must classify from
        relational context instead of memorizing per-node identity (the
        role node features play in OGB)."""
        return self.labels >= 0

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_rels(self) -> int:
        return len(self.rel_names)

    @property
    def n_edges(self) -> int:
        return len(self.edges.src)

    # Undirected CSR view, built lazily — the in-memory GraphSAINT sampler
    # walks on this.
    _csr: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        if self._csr is None:
            self._csr = undirected_csr(self.edges.src, self.edges.dst, self.n_nodes)
        return self._csr


def _norm(key: np.ndarray) -> np.ndarray:
    """Eq. 1's ``1/c_{i,r}`` with ``c_{i,r} = |N_i^r|``, for ``key`` naming
    each edge's ``(r, i)``."""
    _, inv, cnt = np.unique(key, return_inverse=True, return_counts=True)
    return 1.0 / cnt[inv]


def encode_nc(kgp: KG, labelled: DataFrame, *, n_classes: int) -> EncodedGraph:
    """Encode a graph plus an NC task's ``(id, label, split)`` frame.

    Each relation also gets an inverse relation (``p_rev``) so messages
    flow against edge direction too — standard RGCN practice on KGs
    (PyG/DGL add reverse edge types for OGBN-MAG); without it a target
    whose signal edges all point *outward* never receives its neighbours'
    embeddings. Base relation ``c`` (in sorted name order) is code ``2c``
    and its ``p_rev`` is ``2c+1``; within a relation, edges keep the triple
    row order. Labelled vertices absent from the graph are dropped (a
    sampler that lost targets simply has fewer supervised nodes — exactly
    the data insufficiency the paper measures).
    """
    g = kgp.local(keep=False)
    lab = labelled.select("id", "label", "split").toPandas()

    n = len(g.ids)
    s, r, o = g.spo.T
    src, dst, rel = np.concatenate([s, o]), np.concatenate([o, s]), np.concatenate([2 * r, 2 * r + 1])
    order = np.argsort(rel, kind="stable")
    src, dst, rel = src[order], dst[order], rel[order]

    labels = np.full(n, -1, dtype=np.int64)
    masks = {split: np.zeros(n, dtype=bool) for split in ("train", "valid", "test")}
    li = pd.Index(g.ids).get_indexer(lab.id)
    lab, li = lab[li >= 0], li[li >= 0]
    labels[li] = lab.label.to_numpy()
    for split in masks:
        masks[split][li[(lab.split == split).to_numpy()]] = True
    return EncodedGraph(
        node_ids=g.ids,
        rel_names=[name for p in g.rel_names for name in (p, f"{p}_rev")],
        edges=EdgeTable(src, dst, rel, _norm(rel * n + dst)),
        labels=labels,
        masks=masks,
        n_classes=n_classes,
    )


@dataclass
class EncodedLP:
    """Adjacency-encoded graph for LP training on one task predicate."""

    node_ids: np.ndarray
    rel_names: list[str]
    triples: np.ndarray  # all graph triples (n, 3) as (s_idx, r_idx, o_idx), task test/valid triples excluded
    task_rel: int  # index of p_T
    splits: dict[str, np.ndarray]  # split -> (n, 3) triples of p_T
    candidates: np.ndarray  # type-valid candidate object indices for ranking

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_rels(self) -> int:
        return len(self.rel_names)


def encode_lp(kgp: KG, task_predicate: str, split_triples: DataFrame) -> EncodedLP:
    """Encode for LP: ``split_triples`` is the task predicate's
    ``(s, p, o, split)``. Valid/test task triples are removed from the
    training graph (no leakage); candidates are all objects whose node type
    matches any object type of ``p_T``."""
    g = kgp.local(keep=False)
    index, spo = pd.Index(g.ids), g.spo
    sp = split_triples.select("s", "o", "split").toPandas()
    task_rel = g.rel_names.get_loc(task_predicate)

    # drop valid/test task edges from the trainable graph
    held = sp[sp.split != "train"]
    held_keys = set(zip(held.s.to_numpy(), held.o.to_numpy()))
    s_ids, o_ids = g.ids[spo[:, 0]], g.ids[spo[:, 2]]
    drop = (spo[:, 1] == task_rel) & pd.MultiIndex.from_arrays([s_ids, o_ids]).isin(held_keys)
    splits = {}
    for s in ("train", "valid", "test"):
        sub = sp[sp.split == s]
        sub = sub[sub.s.isin(index) & sub.o.isin(index)]
        splits[s] = np.stack([index.get_indexer(sub.s), np.full(len(sub), task_rel), index.get_indexer(sub.o)], axis=1)

    objs = index.get_indexer(sp.o.unique())  # -1: an object that is not a vertex, dropped above
    obj_types = g.ntype[objs[objs >= 0]]
    return EncodedLP(
        node_ids=g.ids,
        rel_names=list(g.rel_names),
        triples=spo[~drop],
        task_rel=task_rel,
        splits={k: v.astype(np.int64) for k, v in splits.items()},
        candidates=np.flatnonzero(np.isin(g.ntype, obj_types)),
    )
