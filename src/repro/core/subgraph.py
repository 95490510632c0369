"""Subgraph construction primitives shared by all extraction methods.

``extractSubgraph`` in Algorithms 1 (line 7) and 2 (line 5) is the induced
subgraph over a chosen vertex set — every KG edge whose both endpoints were
selected. That set is small by construction (bs·(h+1) walk vertices for
URW/BRW, bs + 1/ε + k·bs for IBS) and is held on the driver as a numpy id
array, so it is broadcast and looked up by :func:`probe`, the one broadcast
semi-join of the package: the KG is scanned in place and never shuffled,
KG′'s triples keep the KG's partitioning and its vertex rows come out in
one partition. The SPARQL method probes the triple index the same way and
unions the matched triples; ``from_triples`` rebuilds a typed KG from them
in one partition, with the same probe for the vertex rows.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.kg.schema import KG


# KG′ rows written in one partition come in the order of a 64-way
# hash-partitioned sort-merge join on their key: vertex rows by
# (pmod(hash(id), 64), id), d·h triples bucketed by pmod(hash(s), 64) (see
# ``from_triples``). ``avg_distance_to_targets`` draws its sources by vertex
# row position, ``encode_nc`` builds its CSR in triple row order, and the
# values recorded in ``perfbench/expected.json`` follow these orders, so the
# bucket count is a constant rather than ``spark.sql.shuffle.partitions``.
ROW_ORDER_BUCKETS = 64


def collect_ids(df: DataFrame) -> np.ndarray:
    """The ``id`` column of ``df`` on the driver."""
    return df.select("id").toPandas()["id"].to_numpy(np.int64)


def id_frame(spark: SparkSession, ids: np.ndarray) -> DataFrame:
    """A vertex set held on the driver as one ``id long`` column in one
    partition, so that broadcasting it collects a single task's rows."""
    return spark.createDataFrame(pd.DataFrame({"id": ids}), "id long").coalesce(1)


def probe(df: DataFrame, col: str, keys: DataFrame) -> DataFrame:
    """The rows of ``df`` whose ``col`` is in ``keys`` (column ``id``): a
    broadcast hash semi-join, so ``keys`` must be small. ``df`` is scanned
    in full where it lies and never shuffled."""
    return df.join(F.broadcast(keys.select(F.col("id").alias(col))), col, "semi")


def induced_subgraph(kg: KG, ids: np.ndarray, *, name: str | None = None) -> KG:
    """``KG'`` = all triples of ``kg`` with both endpoints in ``ids``
    (duplicates and absent ids allowed), plus the typed vertex rows,
    ordered by :data:`ROW_ORDER_BUCKETS`."""
    keys = id_frame(kg.triples.sparkSession, ids)
    triples = probe(probe(kg.triples, "s", keys), "o", keys).select("s", "p", "o")
    return KG(name=name or f"{kg.name}'", nodes=_vertex_rows(kg, keys), triples=triples)


def _vertex_rows(kg: KG, ids: DataFrame) -> DataFrame:
    """``kg``'s vertex rows whose ``id`` is in ``ids`` (duplicates allowed),
    in one partition ordered by :data:`ROW_ORDER_BUCKETS`."""
    return (
        probe(kg.nodes, "id", ids)
        .coalesce(1)
        .sortWithinPartitions(F.pmod(F.hash("id"), F.lit(ROW_ORDER_BUCKETS)), "id")
    )


def from_triples(kg: KG, triples: DataFrame, *, name: str | None = None) -> KG:
    """Build ``KG'`` from a small set of matched triples (duplicates
    allowed): the distinct triples in one partition, and the typed vertex
    rows of their endpoints looked up from the parent KG (the SPARQL
    method's merge step, §IV-C).

    The triples are hashed on ``s`` into :data:`ROW_ORDER_BUCKETS` buckets,
    which they reach in the order the probed index layouts emit them, and
    deduplicated per bucket by a hash aggregate; the buckets are
    concatenated in order. That is the order of the 64-way sort-merge join
    and aggregate that once built d·h TOSGs, which the recorded digests
    follow: the hash aggregate emits a few rows of some buckets out of
    ``(s, p, o)`` order, so a plain sort would not reproduce it. Only the
    matched triples are shuffled, never the KG."""
    t = (
        triples.select("s", "p", "o")
        .repartition(ROW_ORDER_BUCKETS, "s")
        .dropDuplicates()
        .coalesce(1)
    )
    endpoints = t.select(F.explode(F.array("s", "o")).alias("id"))
    return KG(name=name or f"{kg.name}'", nodes=_vertex_rows(kg, endpoints), triples=t)


def materialize(kg: KG) -> KG:
    """Persist and force-evaluate a subgraph so downstream metric passes and
    timing measurements don't re-run the extraction lineage. The triples
    are cached first, so vertex rows derived from them (``from_triples``)
    read that cache instead of re-running the extraction."""
    kg.triples = kg.triples.persist()
    kg.nodes = kg.nodes.persist()
    kg.triples.count(), kg.nodes.count()
    return kg
