"""Hexastore-style triple "indices" over Spark DataFrames.

The paper's SPARQL-based extraction (§IV-C) leans on RDF engines' built-in
sextuple indices (SPO, POS, OSP, …, Weiss et al. [41]) so that BGP matching
touches only the triples incident to target vertices instead of scanning
the KG. Our analogue is weaker: cached copies of the triple table, each
repartitioned by its lookup key and sorted within partitions, looked up by
``repro.core.subgraph.probe``, a broadcast hash semi-join against a small
key set. The probe never shuffles a layout, but it scans every row of it
and uses neither the hash partitioning nor the sort, which only fix the
layouts' own row order. So a lookup costs a scan linear in |KG|, not in
the triples it returns: d1h1 for 1,000 PV/MAG targets on 4 vCPUs took
1.97 s over 48K triples and 4.94 s over 972K, with the same Spark job and
task counts.

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
