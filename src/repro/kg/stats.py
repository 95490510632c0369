"""KG statistics — the columns of the paper's Table I.

All statistics are computed with DataFrame aggregations (one Spark job per
KG via a single multi-aggregate where possible) and are oracle-checked
against DuckDB in tests.
"""
from __future__ import annotations

from pyspark.sql import functions as F

from repro.kg.schema import KG


def kg_stats(kg: KG) -> dict:
    """``#nodes, #edges, #n-type, #e-type`` for one KG (Table I row)."""
    n = kg.nodes.agg(
        F.count("id").alias("n_nodes"),
        F.countDistinct("ntype").alias("n_ntypes"),
    ).first()
    e = kg.triples.agg(
        F.count("s").alias("n_edges"),
        F.countDistinct("p").alias("n_etypes"),
    ).first()
    return {
        "kg": kg.name,
        "nodes": int(n["n_nodes"]),
        "edges": int(e["n_edges"]),
        "n_type": int(n["n_ntypes"]),
        "e_type": int(e["n_etypes"]),
    }

