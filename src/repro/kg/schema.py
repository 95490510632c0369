"""KG data model (paper Definition 2.1).

A knowledge graph is a directed multigraph over typed vertices. We carry it
as two Spark DataFrames:

- ``nodes(id: long, ntype: string, year: int)`` — the vertex set ``V`` with
  node types ``C`` (``type(v)``). ``year`` is a per-node timestamp used by
  the time-based train/valid/test splits of Table II (null for untimed
  nodes).
- ``triples(s: long, p: string, o: long)`` — the edge set ``T`` of
  ⟨subject, predicate, object⟩ triples over relations ``R``.

Literals ``L`` are not materialized: the paper's extraction, quality
indicators and GNN pipeline operate on entity–entity triples only (literal
objects would be dropped at the adjacency-matrix transformation anyway).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

NODES_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("ntype", T.StringType(), False),
        T.StructField("year", T.IntegerType(), True),
    ]
)

TRIPLES_SCHEMA = T.StructType(
    [
        T.StructField("s", T.LongType(), False),
        T.StructField("p", T.StringType(), False),
        T.StructField("o", T.LongType(), False),
    ]
)


class LocalKG(NamedTuple):
    """A KG on the driver, in codes: vertex positions follow the row order
    of ``nodes`` and triples the row order of ``triples``."""

    ids: np.ndarray  # vertex position -> id
    ntype: np.ndarray  # vertex position -> code in ntype_names
    ntype_names: pd.Index  # sorted
    spo: np.ndarray  # (n, 3) int64 rows: s position, relation code, o position
    rel_names: pd.Index  # sorted


@dataclass
class KG:
    """A knowledge graph ``KG = (V, C, L, R, T)`` as Spark DataFrames."""

    name: str
    nodes: DataFrame
    triples: DataFrame
    _local: LocalKG | None = field(default=None, repr=False, compare=False)

    def local(self, *, keep: bool = True) -> LocalKG:
        """The KG collected to the driver, for every driver-side reader (the
        quality indicators and the encoders). The first collection is kept,
        so the four indicator calls on a KG′ and its encoding share one;
        the memo stays valid because ``persist()`` and ``materialize`` only
        re-assign the frames to the same rows. ``keep=False`` still reads a
        kept collection but does not keep a new one: the encoders read a
        graph once, and a full graph's arrays should not outlive its
        encoding. A triple whose endpoint is not a vertex raises
        ``KeyError`` (Definition 2.1)."""
        if self._local is not None:
            return self._local
        nodes = self.nodes.select("id", "ntype").toPandas()
        trip = self.triples.select("s", "p", "o").toPandas()
        index = pd.Index(nodes["id"].to_numpy(np.int64))
        s, o = index.get_indexer(trip["s"]), index.get_indexer(trip["o"])
        missing = set(trip["s"][s < 0].tolist()) | set(trip["o"][o < 0].tolist())
        if missing:
            raise KeyError(f"triple endpoints that are not vertices of {self.name}: {sorted(missing)[:5]}")
        ntype, ntype_names = pd.factorize(nodes["ntype"], sort=True)
        rel, rel_names = pd.factorize(trip["p"], sort=True)
        spo = np.stack([s, rel, o], axis=1).astype(np.int64, copy=False)
        g = LocalKG(index.to_numpy(), ntype, ntype_names, spo, rel_names)
        if keep:
            self._local = g
        return g

    def undirected_edges(self) -> DataFrame:
        """Distinct edges as ``(src, dst)`` in both directions: the
        undirected KG that the random walk of Algorithm 1 (GraphSAINT's
        sampler) steps over. The walker collects it, and its draws follow
        this table's row order."""
        fwd = self.triples.select(F.col("s").alias("src"), F.col("o").alias("dst"))
        rev = self.triples.select(F.col("o").alias("src"), F.col("s").alias("dst"))
        return fwd.unionByName(rev).distinct()

    def vertices_of_type(self, ntype: str) -> DataFrame:
        """All vertex ids with ``type(v) = ntype`` — one column ``id``."""
        return self.nodes.where(F.col("ntype") == ntype).select("id")

    def persist(self) -> "KG":
        """Cache both tables; generators call this before handing the KG out."""
        self.nodes = self.nodes.persist()
        self.triples = self.triples.persist()
        return self

    def unpersist(self) -> "KG":
        self.nodes.unpersist()
        self.triples.unpersist()
        return self


@dataclass
class KGBundle:
    """A generated benchmark KG plus its task ground truth.

    ``labels`` maps an NC task name to a DataFrame ``(id, label)`` over the
    task's target vertices. Labels are *node attributes* held outside the
    triple store (as in OGBN-MAG, where the predicted venue is a label, not
    an edge) so models cannot read the answer off the graph.
    """

    kg: KG
    labels: dict[str, DataFrame] = field(default_factory=dict)

    def unpersist(self) -> None:
        self.kg.unpersist()


def make_kg(
    spark: SparkSession, name: str, nodes_pdf, triples_pdf
) -> KG:
    """Build a :class:`KG` from pandas frames with schema enforcement."""
    # Python ints and None: without Arrow, nullable Int64 or NaN-holed years would arrive as floats
    year = nodes_pdf["year"]
    nodes_pdf = nodes_pdf.assign(year=year.astype("Int64").astype(object).where(year.notna(), None))
    nodes = spark.createDataFrame(nodes_pdf, schema=NODES_SCHEMA)
    triples = spark.createDataFrame(triples_pdf, schema=TRIPLES_SCHEMA)
    return KG(name=name, nodes=nodes, triples=triples)
