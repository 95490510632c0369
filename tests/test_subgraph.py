"""Induced-subgraph and triple-union subgraph builders — the
``extractSubgraph`` primitive of Algorithms 1/2 — oracle-checked, with the
induced subgraph's access path (broadcast semi-joins over the KG scans) and
its independence from persistence and partition settings asserted."""
import re

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings

from repro.core.subgraph import collect_ids, from_triples, induced_subgraph, materialize
from repro.metrics.topology import avg_distance_to_targets
from tests.oracle import assert_equivalent
from tests.strategies import case_kg, kgs_and_vertex_sets


@pytest.fixture(scope="module")
def vset(mag_bundle):
    """400 vertex ids held on the driver, as the samplers pass them."""
    return collect_ids(mag_bundle.kg.nodes.limit(400))


def test_induced_triples_against_oracle(mag_bundle, vset):
    got = induced_subgraph(mag_bundle.kg, vset).triples
    assert_equivalent(
        got,
        """SELECT t.s, t.p, t.o FROM t
           WHERE t.s IN (SELECT id FROM v) AND t.o IN (SELECT id FROM v)""",
        t=mag_bundle.kg.triples,
        v=pd.DataFrame({"id": vset}),
    )


def test_induced_keeps_all_chosen_nodes(mag_bundle, vset):
    sub = induced_subgraph(mag_bundle.kg, vset)
    assert sub.nodes.count() == len(np.unique(vset))


def test_induced_node_types_from_parent(mag_bundle, vset):
    sub = induced_subgraph(mag_bundle.kg, vset)
    assert_equivalent(
        sub.nodes.select("id", "ntype"),
        "SELECT n.id, n.ntype FROM n WHERE n.id IN (SELECT id FROM v)",
        n=mag_bundle.kg.nodes,
        v=pd.DataFrame({"id": vset}),
    )


def test_from_triples_nodes_are_endpoints(mag_bundle):
    some = mag_bundle.kg.triples.limit(300)
    sub = from_triples(mag_bundle.kg, some)
    assert_equivalent(
        sub.nodes.select("id"),
        """SELECT DISTINCT id FROM (
             SELECT s AS id FROM t UNION ALL SELECT o AS id FROM t)""",
        t=some,
    )


def test_from_triples_deduplicates(mag_bundle):
    some = mag_bundle.kg.triples.limit(100)
    doubled = some.unionByName(some)
    sub = from_triples(mag_bundle.kg, doubled)
    assert sub.triples.count() == some.dropDuplicates(["s", "p", "o"]).count()


def test_materialize_preserves_content(mag_bundle, vset):
    sub = induced_subgraph(mag_bundle.kg, vset)
    before = sub.triples.count()
    m = materialize(sub)
    assert m.triples.count() == before
    m.unpersist()


def test_induced_subgraph_of_everything_is_identity(mag_bundle):
    sub = induced_subgraph(mag_bundle.kg, collect_ids(mag_bundle.kg.nodes))
    assert sub.triples.count() == mag_bundle.kg.triples.count()
    assert sub.nodes.count() == mag_bundle.kg.nodes.count()


def _streamed_path(df) -> list[str]:
    """One line per operator of ``df``'s executed plan, from the root down
    the first (streamed) child of each operator to the leaf scan. Adaptive
    query stages are looked through; a cached input's own plan is not."""
    df.collect()  # the final adaptive plan exists once the query has run
    node, path = df._jdf.queryExecution().executedPlan(), []
    while True:
        name = node.nodeName()
        if name == "AdaptiveSparkPlan":
            node = node.executedPlan()
        elif name.endswith("QueryStage"):
            node = node.plan()
        else:
            path.append(node.simpleString(10))
            if node.children().isEmpty():
                return path
            node = node.children().apply(0)


def test_induced_subgraph_probes_the_kg_in_place(mag_bundle, vset):
    """Triples and vertex rows are broadcast semi-joins straight over the
    KG's cached scans, and neither plan shuffles: the KG stays where it
    lies."""
    sub = induced_subgraph(mag_bundle.kg, vset)
    trip, nodes = _streamed_path(sub.triples), _streamed_path(sub.nodes)
    assert re.fullmatch(r"InMemoryTableScan \[s#\d+L, p#\d+, o#\d+L\]", trip[-1])
    assert re.fullmatch(r"InMemoryTableScan \[id#\d+L, ntype#\d+, year#\d+\]", nodes[-1])
    assert sum(op.startswith("BroadcastHashJoin") and "LeftSemi" in op for op in trip) == 2
    assert sum(op.startswith("BroadcastHashJoin") and "LeftSemi" in op for op in nodes) == 1
    assert not any(op.startswith("Exchange") for op in trip + nodes)


def test_induced_subgraph_independent_of_persistence(spark, mag_bundle, mag_d1h1, mag_pv_targets):
    """The same vertex rows, in the same order, and so the same sampled
    distance, whether KG' is persisted or not and whatever the shuffle
    partition count was when it was; a persisted KG' keeps one vertex
    partition and the KG's triple partitioning."""
    kg = mag_bundle.kg
    v = collect_ids(mag_d1h1.nodes)  # as the samplers pass it
    plain = induced_subgraph(kg, v)
    # before the persisted copy exists: Spark would answer the same plan from it
    rows, d = plain.nodes.toPandas(), avg_distance_to_targets(plain, mag_pv_targets, n_sources=3)
    conf = "spark.sql.shuffle.partitions"
    before = spark.conf.get(conf)
    spark.conf.set(conf, "7")
    try:
        kept = materialize(induced_subgraph(kg, v))
    finally:
        spark.conf.set(conf, before)
    try:
        assert kept.nodes.rdd.getNumPartitions() == 1
        assert kept.triples.rdd.getNumPartitions() == kg.triples.rdd.getNumPartitions()
        pd.testing.assert_frame_equal(rows, kept.nodes.toPandas())
        assert d == d and d == avg_distance_to_targets(kept, mag_pv_targets, n_sources=3)
    finally:
        kept.unpersist()


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(kgs_and_vertex_sets())
@example(([(0, "A", None), (1, "B", 2000)], [(0, "p", 1), (0, "p", 0)], []))
def test_induced_subgraph_matches_sql_in(spark, case):
    nodes, triples, chosen = case
    kg = case_kg(spark, nodes, triples)
    v = pd.DataFrame({"id": pd.Series(chosen, dtype="int64")})
    sub = induced_subgraph(kg, v["id"].to_numpy())
    assert_equivalent(
        sub.triples,
        "SELECT s, p, o FROM t WHERE s IN (SELECT id FROM v) AND o IN (SELECT id FROM v)",
        t=kg.triples,
        v=v,
    )
    assert_equivalent(
        sub.nodes,
        "SELECT id, ntype, year FROM n WHERE id IN (SELECT id FROM v)",
        n=kg.nodes,
        v=v,
    )
