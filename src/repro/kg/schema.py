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


@dataclass
class KG:
    """A knowledge graph ``KG = (V, C, L, R, T)`` as Spark DataFrames."""

    name: str
    nodes: DataFrame
    triples: DataFrame

    def n_nodes(self) -> int:
        """``|V|``."""
        return self.nodes.count()

    def n_edges(self) -> int:
        """``|T|`` (number of RDF triples)."""
        return self.triples.count()

    def node_types(self) -> list[str]:
        """The node-type set ``C``, sorted."""
        return sorted(
            r["ntype"] for r in self.nodes.select("ntype").distinct().collect()
        )

    def edge_types(self) -> list[str]:
        """The relation set ``R``, sorted."""
        return sorted(r["p"] for r in self.triples.select("p").distinct().collect())

    def undirected_edges(self) -> DataFrame:
        """Edges as ``(src, dst)`` in both directions.

        Random walks and reachability in the paper (GraphSAINT's sampler,
        the disconnected-from-target indicator) treat the KG as undirected.
        """
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
