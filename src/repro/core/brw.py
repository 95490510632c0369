"""Biased Random Walk sampling — the paper's Algorithm 1.

``getInitialVertices(bs, A.V_T)`` draws the roots from the task's target
vertices ``V_T``, which biases the expansion toward graph regions centred
on the task: every sampled vertex is reachable from a target by
construction, target representation rises, and the induced-subgraph step
(line 7) interlinks the per-walk regions into one KG'.

URW, GraphSAINT's default sampler (paper §II-B) and the RW baseline of
Figure 2 and Table III, differs only in drawing its roots from all of V
with no regard for node or edge types: it is ``brw_sample(kg, kg.nodes,
…)``, whose samples under-represent targets and retain target-disconnected
noise.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.subgraph import induced_subgraph
from repro.core.walks import random_walk_visited, sample_vertices
from repro.kg.schema import KG


def brw_sample(kg: KG, targets: DataFrame, *, bs: int, h: int, seed: int = 0) -> KG:
    """Algorithm 1: roots ⊆ ``targets`` (column ``id``), walk ``h`` hops,
    induce the subgraph."""
    roots = sample_vertices(targets, bs, seed=seed)
    visited = random_walk_visited(kg, roots, h, seed=seed)
    return induced_subgraph(kg, visited, name=f"{kg.name}-BRW")
