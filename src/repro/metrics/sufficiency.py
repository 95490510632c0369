"""Data-sufficiency indicators (paper §III-A, Table III left half).

A good task-oriented subgraph contains *enough target vertices* (so every
training mini-batch supervises many labelled nodes) and only the node/edge
types that matter for the task (|C'| ≤ |C|, |R'| ≤ |R|).
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.kg.schema import KG
from repro.metrics.topology import _local_and_mask


def sufficiency_stats(kgp: KG, targets: DataFrame) -> dict:
    """Table III columns: ``V_T`` (targets present in KG'), ``V_T %``
    (share of KG' vertices that are targets), ``|C'|``, ``|R'|``."""
    g, in_t = _local_and_mask(kgp, targets)
    n_nodes, n_targets = len(g.ids), int(in_t.sum())
    return {
        "V_T": n_targets,
        "V_T_pct": 100.0 * n_targets / max(1, n_nodes),
        "C'": len(g.ntype_names),
        "R'": len(g.rel_names),
        "nodes": n_nodes,
    }
