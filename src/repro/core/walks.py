"""Distributed random-walk machinery shared by URW and BRW.

A walk step is one Catalyst round: join the walk frontier against the
(undirected) edge table, draw ``rand()`` per candidate, and keep the
top-ranked candidate per walk via a window — i.e. each walker moves to one
uniformly random neighbour. Walkers stranded on isolated vertices simply
stop (the join drops them), matching GraphSAINT's sampler. Lineage is cut
with ``localCheckpoint`` so ``h`` iterations don't compound plan depth.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.subgraph import collect_ids, id_frame
from repro.kg.schema import KG


def sample_vertices(vertices: DataFrame, n: int, *, seed: int) -> DataFrame:
    """Uniformly draw ``n`` vertex ids (column ``id``) without replacement —
    ``getInitialVertices`` of Algorithm 1."""
    return vertices.select("id").orderBy(F.rand(seed)).limit(n)


def random_walk_visited(kg: KG, roots: DataFrame, h: int, *, seed: int) -> DataFrame:
    """All distinct vertices visited by length-``h`` uniform random walks
    started at ``roots`` (column ``id``), roots included. Returns one ``id``
    column. Walkers are numbered 1..n in root-id order on the driver: there
    are at most ``bs`` roots."""
    spark = kg.triples.sparkSession
    edges = kg.undirected_edges().persist()
    ids = np.unique(collect_ids(roots))
    frontier = spark.createDataFrame(
        pd.DataFrame({"id": ids, "walk": np.arange(1, len(ids) + 1, dtype=np.int32)}), "id long, walk int"
    ).coalesce(1)  # at most bs rows: one task
    visited = frontier.select("id")
    w = Window.partitionBy("walk").orderBy("_r")
    for step in range(h):
        cand = frontier.join(edges, frontier.id == edges.src).select(
            "walk", F.col("dst").alias("id")
        )
        frontier = (
            cand.withColumn("_r", F.rand(seed + 1000 * step))
            .withColumn("_rn", F.row_number().over(w))
            .where(F.col("_rn") == 1)
            .select("walk", "id")
            .localCheckpoint(eager=True)
        )
        visited = visited.unionByName(frontier.select("id"))
    out = np.unique(collect_ids(visited))
    edges.unpersist()
    return id_frame(spark, out)
