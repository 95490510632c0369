"""Reference implementations that results are checked against.

DuckDB for query-shaped results:
``assert_equivalent(spark_df, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and asserts the sorted rows match ``spark_df`` (the
Spark result). This catches wrong results from a rewritten plan or a
custom operator — "it ran" is not "it is correct".

``tables`` may be Spark or pandas DataFrames; Spark inputs are
collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.

Spark for the random walk: ``spark_walk_visited`` is the walker as a
Spark step loop, whose draws ``repro.core.walks.random_walk_visited``
reproduces on the driver.
"""
import duckdb
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.subgraph import collect_ids


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = spark_df.toPandas()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )


def spark_walk_visited(kg, roots: np.ndarray, h: int, *, seed: int) -> np.ndarray:
    """Sorted distinct ids visited by ``h`` steps of walkers started at
    ``roots``, one Spark round per step: join the frontier against the
    persisted undirected edges, draw ``rand(seed + 1000·step)`` per
    candidate and keep each walker's smallest draw."""
    spark = kg.triples.sparkSession
    edges = kg.undirected_edges().persist()
    ids = np.unique(roots)
    frontier = spark.createDataFrame(
        pd.DataFrame({"id": ids, "walk": np.arange(1, len(ids) + 1, dtype=np.int32)}), "id long, walk int"
    ).coalesce(1)
    visited = [ids]
    w = Window.partitionBy("walk").orderBy("_r")
    for step in range(h):
        cand = frontier.join(edges, frontier.id == edges.src).select("walk", F.col("dst").alias("id"))
        frontier = (
            cand.withColumn("_r", F.rand(seed + 1000 * step))
            .withColumn("_rn", F.row_number().over(w))
            .where(F.col("_rn") == 1)
            .select("walk", "id")
            .localCheckpoint(eager=True)
        )
        visited.append(collect_ids(frontier))
    edges.unpersist()
    return np.unique(np.concatenate(visited))
