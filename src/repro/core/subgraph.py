"""Subgraph construction primitives shared by all extraction methods.

``extractSubgraph`` in Algorithms 1 (line 7) and 2 (line 5) is the induced
subgraph over a chosen vertex set — every KG edge whose both endpoints were
selected. That set is small by construction (bs·(h+1) walk vertices for
URW/BRW, bs + 1/ε + k·bs for IBS), so it is broadcast and probed by
semi-joins: the KG is scanned in place and never shuffled, KG′'s triples
keep the KG's partitioning and its vertex rows come out in one partition.
The SPARQL method instead unions matched triples; ``from_triples`` rebuilds
a typed KG from them.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.kg.schema import KG


# KG′ vertex rows are ordered by (pmod(hash(id), 64), id), the order a 64-way
# hash-partitioned sort-merge join returns. ``avg_distance_to_targets`` draws
# its sources by row position, and the values recorded in
# ``perfbench/expected.json`` follow this order, so it is a constant rather
# than ``spark.sql.shuffle.partitions``.
NODE_ORDER_BUCKETS = 64


def collect_ids(df: DataFrame) -> np.ndarray:
    """The ``id`` column of ``df`` on the driver."""
    return df.select("id").toPandas()["id"].to_numpy(np.int64)


def id_frame(spark: SparkSession, ids: np.ndarray) -> DataFrame:
    """A vertex set held on the driver as one ``id long`` column in one
    partition, so that broadcasting it collects a single task's rows."""
    return spark.createDataFrame(pd.DataFrame({"id": ids}), "id long").coalesce(1)


def induced_subgraph(kg: KG, vertex_ids: DataFrame, *, name: str | None = None) -> KG:
    """``KG'`` = all triples of ``kg`` with both endpoints in ``vertex_ids``
    (one column ``id``; duplicates and absent ids allowed), plus the typed
    vertex rows, ordered by :data:`NODE_ORDER_BUCKETS`."""
    v = vertex_ids.select("id")
    triples = (
        kg.triples.join(F.broadcast(v.withColumnRenamed("id", "s")), "s", "semi")
        .join(F.broadcast(v.withColumnRenamed("id", "o")), "o", "semi")
        .select("s", "p", "o")
    )
    nodes = (
        kg.nodes.join(F.broadcast(v), "id", "semi")
        .coalesce(1)
        .sortWithinPartitions(F.pmod(F.hash("id"), F.lit(NODE_ORDER_BUCKETS)), "id")
    )
    return KG(name=name or f"{kg.name}'", nodes=nodes, triples=triples)


def from_triples(kg: KG, triples: DataFrame, *, name: str | None = None) -> KG:
    """Build ``KG'`` from a set of matched triples: vertices are the
    endpoints, types/years looked up from the parent KG (the SPARQL
    method's merge step, §IV-C)."""
    t = triples.select("s", "p", "o").dropDuplicates()
    endpoints = (
        t.select(F.col("s").alias("id"))
        .unionByName(t.select(F.col("o").alias("id")))
        .distinct()
    )
    nodes = kg.nodes.join(endpoints, "id", "semi")
    return KG(name=name or f"{kg.name}'", nodes=nodes, triples=t)


def materialize(kg: KG) -> KG:
    """Persist and force-evaluate a subgraph so downstream metric passes and
    timing measurements don't re-run the extraction lineage."""
    kg.nodes = kg.nodes.persist()
    kg.triples = kg.triples.persist()
    kg.nodes.count(), kg.triples.count()
    return kg
