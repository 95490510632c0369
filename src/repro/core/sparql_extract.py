"""SPARQL-based TOSG extraction — the paper's main method (Algorithm 3).

The generic pattern (``pattern.TOSGPattern``) is evaluated as a BGP
against the hexastore-style triple indices of ``kg.partition``: hop 1
fetches every triple incident to a target vertex (outgoing leg via the
subject index; incoming leg via the object index when ``d=2``), hop 2
repeats from the hop-1 neighbour frontier, and so on. Matched triples are
unioned and de-duplicated — the "merge" that interlinks per-target stars
into one KG' with longer metapaths (§IV-C).

Algorithm 3 pages the target set into subqueries run by a worker pool and
drops duplicates once at the end (line 10). Here each hop's frontier is a
distinct id set held on the driver (at most the targets' h-hop
neighbourhood, which is KG′-sized) and is one ``subgraph.probe`` of the
cached index: the frontier is the page, the index is scanned where it lies
and never shuffled. ``from_triples`` does the one final dedup, over the
matched triples only.

The probe reads every row of the cached layout, so an extraction costs a
fixed number of Spark jobs plus a scan linear in |KG|, not a cost ∝ |KG′|.
d1h1 for 1,000 PV/MAG targets on 4 vCPUs took 1.97 s over 48K triples and
4.94 s over 972K, with the same job and task counts and about 9,000
matched triples at both scales.
"""
from __future__ import annotations

from functools import reduce

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.pattern import TOSGPattern
from repro.core.subgraph import collect_ids, from_triples, id_frame, probe
from repro.kg.partition import TripleIndex
from repro.kg.schema import KG


def _match_bgp(index: TripleIndex, targets: DataFrame, pattern: TOSGPattern) -> DataFrame:
    """All triples matched by the pattern's UNION legs for ``targets``."""
    spark = index.kg.triples.sparkSession
    frontier = np.unique(collect_ids(targets))
    legs: list[DataFrame] = []
    for hop in range(pattern.h):
        keys = id_frame(spark, frontier)
        out = probe(index.by_s, "s", keys)  # ?v ?p ?o
        legs.append(out)
        nxt = [out.select(F.col("o").alias("id"))]
        if pattern.d == 2:
            inc = probe(index.by_o, "o", keys)  # ?s ?p ?v
            legs.append(inc)
            nxt.append(inc.select(F.col("s").alias("id")))
        if hop + 1 < pattern.h:
            frontier = np.unique(collect_ids(reduce(DataFrame.unionByName, nxt)))
    return reduce(DataFrame.unionByName, legs)


def extract_tosg(
    index: TripleIndex,
    targets: DataFrame,
    pattern: TOSGPattern = TOSGPattern(1, 1),
    *,
    lp_predicate: str | None = None,
) -> KG:
    """Extract ``KG'`` for a target set with pattern ``(d, h)``.

    For LP tasks, the bridge triple pattern ``⟨?v_Ti, p_T, ?v_Tj⟩`` is
    added so the subgraphs around the two target endpoints stay linked.
    """
    kg = index.kg
    matched = _match_bgp(index, targets, pattern)
    if lp_predicate is not None:
        matched = matched.unionByName(index.by_s.where(F.col("p") == lp_predicate))
    return from_triples(kg, matched, name=f"{kg.name}-TOSA_{pattern.variant}")
