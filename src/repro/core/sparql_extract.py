"""SPARQL-based TOSG extraction — the paper's main method (Algorithm 3).

The generic pattern (``pattern.TOSGPattern``) is evaluated as a BGP
against the hexastore-style triple indices of ``kg.partition``: hop 1
fetches every triple incident to a target vertex (outgoing leg via the
subject index; incoming leg via the object index when ``d=2``), hop 2
repeats from the hop-1 neighbour frontier, and so on. Matched triples are
unioned and de-duplicated — the "merge" that interlinks per-target stars
into one KG' with longer metapaths (§IV-C).

Algorithm 3 pages the target set into subqueries run by a worker pool and
drops duplicates once at the end (line 10). Here the whole target set is
one Catalyst plan: Spark's partitioned semi-join against the index plays
the paging and the worker pool, and ``from_triples`` does the one final
dedup.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.pattern import TOSGPattern
from repro.core.subgraph import from_triples
from repro.kg.partition import TripleIndex
from repro.kg.schema import KG


def _match_bgp(index: TripleIndex, targets: DataFrame, pattern: TOSGPattern) -> DataFrame:
    """All triples matched by the pattern's UNION legs for ``targets``."""
    frontier = targets.select("id").distinct()
    legs: list[DataFrame] = []
    for _hop in range(pattern.h):
        out = index.outgoing(frontier)
        legs.append(out)
        nxt = out.select(F.col("o").alias("id"))
        if pattern.d == 2:
            inc = index.incoming(frontier)
            legs.append(inc)
            nxt = nxt.unionByName(inc.select(F.col("s").alias("id")))
        frontier = nxt.distinct().localCheckpoint(eager=True)
    return reduce(lambda a, b: a.unionByName(b), legs)


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
        matched = matched.unionByName(index.predicate(lp_predicate))
    return from_triples(kg, matched, name=f"{kg.name}-TOSA_{pattern.variant}")
