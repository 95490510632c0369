"""Hexastore-style triple "indices" over Spark DataFrames.

The paper's SPARQL-based extraction (§IV-C) leans on RDF engines' built-in
sextuple indices (SPO, POS, OSP, …, Weiss et al. [41]) so that BGP matching
touches only the triples incident to target vertices instead of scanning
the KG. Our analogue: cached copies of the triple table, each repartitioned
by its lookup key and sorted within partitions, probed by a broadcast hash
semi-join against a small key set. The probe scans the cached layout where
it lies and never shuffles it; it uses neither the hash partitioning nor
the sort, which only fix the layouts' own row order.

A hexastore keeps one layout per binding pattern a query uses. The d·h
pattern binds only the subject (outgoing legs) or the object (incoming
legs), so ``TripleIndex`` materializes two persisted layouts:

- ``by_s``  — subject-keyed (SPO analogue): outgoing-edge lookups,
- ``by_o``  — object-keyed (OPS analogue): incoming-edge lookups.

The LP bridge reads a single predicate; it is a filtered scan of the cached
``by_s`` layout.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.kg.schema import KG

# Partitions per layout. Extraction plans and the row order of their results
# depend on it, so changing it is a measured decision, not a tuning knob.
N_PARTITIONS = 16


@dataclass
class TripleIndex:
    """Persisted key-partitioned layouts of one KG's triple table."""

    kg: KG
    by_s: DataFrame
    by_o: DataFrame

    def outgoing(self, vertex_ids: DataFrame) -> DataFrame:
        """All triples whose subject is in ``vertex_ids`` (column ``id``) —
        the ``?v ?p ?o`` leg of the BGP for a target set. The key set is
        broadcast, so it must be small."""
        return self.by_s.join(F.broadcast(vertex_ids.withColumnRenamed("id", "s")), "s", "semi")

    def incoming(self, vertex_ids: DataFrame) -> DataFrame:
        """All triples whose object is in ``vertex_ids`` — the
        ``?s ?p ?v`` (d=2) leg of the BGP; the key set is broadcast."""
        return self.by_o.join(F.broadcast(vertex_ids.withColumnRenamed("id", "o")), "o", "semi")

    def predicate(self, p: str) -> DataFrame:
        """All triples of one predicate — the LP bridge pattern
        ``⟨?v_Ti, p_T, ?v_Tj⟩``."""
        return self.by_s.where(F.col("p") == p)

    def unpersist(self) -> None:
        for df in (self.by_s, self.by_o):
            df.unpersist()


def build_index(kg: KG) -> TripleIndex:
    """Build and persist the two layouts (the RDF engine's "default
    built-in indices"; built once per KG, amortized over every extraction)."""
    t = kg.triples
    by_s = t.repartition(N_PARTITIONS, "s").sortWithinPartitions("s", "p", "o").persist()
    by_o = t.repartition(N_PARTITIONS, "o").sortWithinPartitions("o", "p", "s").persist()
    # materialize eagerly so extraction timings don't pay index build cost
    by_s.count(), by_o.count()
    return TripleIndex(kg=kg, by_s=by_s, by_o=by_o)
