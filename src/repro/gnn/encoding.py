"""Transformation of a (sub)graph's RDF triples into adjacency structures —
the mandatory "Transformation Time" step of the paper's Table IV pipeline
(Fig. 4: TOSG → adjacency matrices → HGNN training).

The encoded form is a contiguous node index plus per-relation edge arrays
``(src, dst, norm)`` with the Eq. 1 normalization ``1/|N_i^r|`` (in-degree
per relation), ready for the numpy RGCN. LP tasks get entity/relation
indices plus split triple arrays and type-valid candidate sets.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.kg.schema import KG


@dataclass
class RelEdges:
    """One relation's edges in contiguous node indices."""

    src: np.ndarray
    dst: np.ndarray
    norm: np.ndarray  # 1 / in-degree of dst under this relation


@dataclass
class EncodedGraph:
    """Adjacency-encoded (sub)graph for NC training."""

    node_ids: np.ndarray  # position -> original vertex id
    rel_names: list[str]
    edges: list[RelEdges]
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
        return sum(len(e.src) for e in self.edges)

    # Undirected CSR view, built lazily — the in-memory GraphSAINT sampler
    # walks on this.
    _csr: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        if self._csr is None:
            src = np.concatenate([e.src for e in self.edges] + [e.dst for e in self.edges])
            dst = np.concatenate([e.dst for e in self.edges] + [e.src for e in self.edges])
            order = np.argsort(src, kind="stable")
            src, dst = src[order], dst[order]
            indptr = np.searchsorted(src, np.arange(self.n_nodes + 1))
            self._csr = (indptr, dst)
        return self._csr


def _norm(dst: np.ndarray) -> np.ndarray:
    """Eq. 1's ``1/c_{i,r}`` with ``c_{i,r} = |N_i^r|``."""
    _, inv, cnt = np.unique(dst, return_inverse=True, return_counts=True)
    return 1.0 / cnt[inv]


def encode_nc(kgp: KG, labelled: DataFrame, *, n_classes: int) -> EncodedGraph:
    """Encode a graph plus an NC task's ``(id, label, split)`` frame.

    Each relation also gets an inverse relation (``p_rev``) so messages
    flow against edge direction too — standard RGCN practice on KGs
    (PyG/DGL add reverse edge types for OGBN-MAG); without it a target
    whose signal edges all point *outward* never receives its neighbours'
    embeddings. Labelled vertices absent from the graph are dropped (a
    sampler that lost targets simply has fewer supervised nodes — exactly
    the data insufficiency the paper measures).
    """
    nodes = kgp.nodes.select("id").toPandas()
    trip = kgp.triples.toPandas()
    lab = labelled.select("id", "label", "split").toPandas()

    node_ids = nodes["id"].to_numpy()
    pos = pd.Series(np.arange(len(node_ids)), index=node_ids)

    base_rels = sorted(trip["p"].unique())
    rel_names = []
    edges = []
    for p in base_rels:
        sub = trip[trip.p == p]
        src = pos[sub.s.to_numpy()].to_numpy()
        dst = pos[sub.o.to_numpy()].to_numpy()
        rel_names.append(p)
        edges.append(RelEdges(src=src, dst=dst, norm=_norm(dst)))
        rel_names.append(f"{p}_rev")
        edges.append(RelEdges(src=dst, dst=src, norm=_norm(src)))

    labels = np.full(len(node_ids), -1, dtype=np.int64)
    masks = {s: np.zeros(len(node_ids), dtype=bool) for s in ("train", "valid", "test")}
    lab = lab[lab.id.isin(pos.index)]
    li = pos[lab.id.to_numpy()].to_numpy()
    labels[li] = lab.label.to_numpy()
    for s in masks:
        sel = li[(lab.split == s).to_numpy()]
        masks[s][sel] = True
    return EncodedGraph(
        node_ids=node_ids,
        rel_names=rel_names,
        edges=edges,
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
    nodes = kgp.nodes.select("id", "ntype").toPandas()
    trip = kgp.triples.toPandas()
    sp = split_triples.select("s", "o", "split").toPandas()

    node_ids = nodes["id"].to_numpy()
    pos = pd.Series(np.arange(len(node_ids)), index=node_ids)
    rel_names = sorted(trip["p"].unique())
    rpos = {p: i for i, p in enumerate(rel_names)}
    task_rel = rpos[task_predicate]

    # drop valid/test task edges from the trainable graph
    held = sp[sp.split != "train"]
    held_keys = set(zip(held.s.to_numpy(), held.o.to_numpy()))
    is_task = trip.p == task_predicate
    drop = is_task & pd.MultiIndex.from_arrays([trip.s, trip.o]).isin(held_keys)
    kept = trip[~drop]

    all_triples = np.stack(
        [
            pos[kept.s.to_numpy()].to_numpy(),
            kept.p.map(rpos).to_numpy(),
            pos[kept.o.to_numpy()].to_numpy(),
        ],
        axis=1,
    )
    splits = {}
    for s in ("train", "valid", "test"):
        sub = sp[sp.split == s]
        sub = sub[sub.s.isin(pos.index) & sub.o.isin(pos.index)]
        splits[s] = np.stack(
            [
                pos[sub.s.to_numpy()].to_numpy(),
                np.full(len(sub), task_rel),
                pos[sub.o.to_numpy()].to_numpy(),
            ],
            axis=1,
        ) if len(sub) else np.empty((0, 3), dtype=np.int64)

    obj_types = set(
        nodes.set_index("id").loc[sp.o.unique().tolist()]["ntype"].unique().tolist()
    )
    candidates = pos[nodes[nodes.ntype.isin(obj_types)]["id"].to_numpy()].to_numpy()
    return EncodedLP(
        node_ids=node_ids,
        rel_names=rel_names,
        triples=all_triples.astype(np.int64),
        task_rel=task_rel,
        splits={k: v.astype(np.int64) for k, v in splits.items()},
        candidates=candidates.astype(np.int64),
    )
