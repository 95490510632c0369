"""SPARQL-based TOSG extraction (Algorithm 3): every d/h variation and the
LP bridge are oracle-checked against the equivalent SQL over the raw triple
table, on the MAG fixtures and by a hypothesis property test; an empty
target set has a defined result; the executed plans are broadcast probes of
the cached index that never shuffle it, and KG′'s row order depends neither
on the shuffle partition count nor on persistence."""
import re

import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.pattern import TOSGPattern
from repro.core.sparql_extract import extract_tosg
from repro.core.subgraph import ROW_ORDER_BUCKETS
from repro.kg.partition import build_index
from repro.kg.schema import make_kg
from repro.tasks.defs import TASKS, target_vertices
from tests.oracle import assert_equivalent
from tests.strategies import case_kg, kgs_and_vertex_sets

# The four d·h variations the paper evaluates (Figure 8).
VARIATIONS = [TOSGPattern(1, 1), TOSGPattern(2, 1), TOSGPattern(1, 2), TOSGPattern(2, 2)]

# The d·h BGP in SQL over the triple table ``t`` and the targets ``g``.
DH_SQL = {
    "d1h1": "SELECT DISTINCT t.s, t.p, t.o FROM t WHERE t.s IN (SELECT id FROM g)",
    "d2h1": """SELECT DISTINCT t.s, t.p, t.o FROM t
               WHERE t.s IN (SELECT id FROM g) OR t.o IN (SELECT id FROM g)""",
    "d1h2": """SELECT DISTINCT t.s, t.p, t.o FROM t
               WHERE t.s IN (SELECT id FROM g)
                  OR t.s IN (SELECT t2.o FROM t t2 WHERE t2.s IN (SELECT id FROM g))""",
    "d2h2": """WITH hop1 AS (
                 SELECT s, p, o FROM t
                 WHERE s IN (SELECT id FROM g) OR o IN (SELECT id FROM g)),
               frontier AS (
                 SELECT o AS id FROM t WHERE s IN (SELECT id FROM g)
                 UNION SELECT s AS id FROM t WHERE o IN (SELECT id FROM g))
               SELECT DISTINCT s, p, o FROM (
                 SELECT * FROM hop1
                 UNION ALL
                 SELECT s, p, o FROM t
                 WHERE s IN (SELECT id FROM frontier) OR o IN (SELECT id FROM frontier))""",
}


def _tosg_sql(variant: str, lp_predicate: str | None = None) -> str:
    """KG′'s triples: the d·h match, plus the LP bridge's predicate."""
    if lp_predicate is None:
        return DH_SQL[variant]
    return f"SELECT s, p, o FROM ({DH_SQL[variant]}) UNION SELECT s, p, o FROM t WHERE p = '{lp_predicate}'"


def test_d1h1_matches_oracle(mag_index, mag_pv_targets):
    kgp = extract_tosg(mag_index, mag_pv_targets, TOSGPattern(1, 1))
    assert_equivalent(kgp.triples, DH_SQL["d1h1"], t=mag_index.kg.triples, g=mag_pv_targets)


def test_d2h1_matches_oracle(mag_index, mag_pv_targets):
    kgp = extract_tosg(mag_index, mag_pv_targets, TOSGPattern(2, 1))
    assert_equivalent(kgp.triples, DH_SQL["d2h1"], t=mag_index.kg.triples, g=mag_pv_targets)


def test_d1h2_matches_oracle(mag_index, mag_pv_targets):
    kgp = extract_tosg(mag_index, mag_pv_targets, TOSGPattern(1, 2))
    assert_equivalent(kgp.triples, DH_SQL["d1h2"], t=mag_index.kg.triples, g=mag_pv_targets)


def test_d2h2_matches_oracle(mag_index, mag_pv_targets):
    kgp = extract_tosg(mag_index, mag_pv_targets, TOSGPattern(2, 2))
    assert_equivalent(kgp.triples, DH_SQL["d2h2"], t=mag_index.kg.triples, g=mag_pv_targets)


def test_variation_containment(mag_index, mag_pv_targets):
    """d1h1 ⊆ d2h1 and d1h1 ⊆ d1h2 (more direction/hops only add triples)."""
    def tset(p):
        df = extract_tosg(mag_index, mag_pv_targets, p).triples.toPandas()
        return set(map(tuple, df.to_numpy()))

    t11, t21, t12 = tset(TOSGPattern(1, 1)), tset(TOSGPattern(2, 1)), tset(TOSGPattern(1, 2))
    assert t11 <= t21
    assert t11 <= t12


def test_nodes_are_triple_endpoints(mag_index, mag_pv_targets):
    kgp = extract_tosg(mag_index, mag_pv_targets, TOSGPattern(1, 1))
    endpoints = (
        kgp.triples.select(F.col("s").alias("id"))
        .unionByName(kgp.triples.select(F.col("o").alias("id")))
        .distinct()
    )
    assert kgp.nodes.count() == endpoints.count()


def test_lp_bridge_includes_all_task_triples(dblp_bundle):
    task = TASKS["AA/DBLP-15M"]
    idx = build_index(dblp_bundle.kg)
    targets = target_vertices(dblp_bundle.kg, task)
    kgp = extract_tosg(idx, targets, TOSGPattern(2, 1), lp_predicate=task.predicate)
    n_task = dblp_bundle.kg.triples.where(F.col("p") == task.predicate).count()
    assert kgp.triples.where(F.col("p") == task.predicate).count() == n_task
    idx.unpersist()


def test_d1h1_excludes_noise_components(mag_d1h1):
    """The d1h1 TOSG must contain no task-irrelevant noise vertices."""
    noise = mag_d1h1.nodes.where(F.col("ntype").startswith("magN")).count()
    assert noise == 0


def test_extraction_is_deterministic(mag_index, half_pv_targets):
    """Two extractions give the same triples, and each runs: its only cached
    scan is the index's ``by_s``, never a cached KG′."""
    by_s = _cached(mag_index.by_s)
    got = []
    for _ in range(2):
        triples = extract_tosg(mag_index, half_pv_targets, TOSGPattern(1, 1)).triples.orderBy("s", "p", "o")
        scans = [op for op in _plan_nodes(triples) if op.nodeName() == "InMemoryTableScan"]
        assert scans and all(op.relation().cacheBuilder().equals(by_s) for op in scans)
        got.append(triples.toPandas())
    assert got[0].equals(got[1])


@pytest.fixture(scope="module")
def tiny_index(spark):
    """Vertices t=0 (T), a=1 (A), b=2 (B); triples t-x->a and b-y->a."""
    nodes = pd.DataFrame(
        {
            "id": pd.Series([0, 1, 2], dtype="int64"),
            "ntype": pd.Series(["T", "A", "B"], dtype="object"),
            "year": pd.array([None] * 3, dtype="Int64"),
        }
    )
    triples = pd.DataFrame(
        {
            "s": pd.Series([0, 2], dtype="int64"),
            "p": pd.Series(["x", "y"], dtype="object"),
            "o": pd.Series([1, 1], dtype="int64"),
        }
    )
    idx = build_index(make_kg(spark, "tiny", nodes, triples))
    yield idx
    idx.unpersist()


def _ids(spark, ids):
    return spark.createDataFrame([(i,) for i in ids], schema="id long")


def _content(kgp):
    triples = {(r["s"], r["p"], r["o"]) for r in kgp.triples.collect()}
    nodes = {r["id"] for r in kgp.nodes.collect()}
    return triples, nodes


@pytest.mark.parametrize("pattern", VARIATIONS, ids=lambda p: p.variant)
def test_empty_targets_give_empty_kgp(spark, tiny_index, pattern):
    kgp = extract_tosg(tiny_index, _ids(spark, []), pattern)
    assert _content(kgp) == (set(), set())


def test_empty_targets_keep_lp_bridge(spark, tiny_index):
    kgp = extract_tosg(tiny_index, _ids(spark, []), TOSGPattern(2, 1), lp_predicate="y")
    assert _content(kgp) == ({(2, "y", 1)}, {1, 2})


def test_absent_lp_predicate_adds_nothing(spark, tiny_index):
    none = extract_tosg(tiny_index, _ids(spark, []), TOSGPattern(2, 1), lp_predicate="z")
    assert _content(none) == (set(), set())
    kgp = extract_tosg(tiny_index, _ids(spark, [0]), TOSGPattern(2, 1), lp_predicate="z")
    assert _content(kgp) == ({(0, "x", 1)}, {0, 1})


@pytest.mark.parametrize("pattern", VARIATIONS, ids=lambda p: p.variant)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(case=kgs_and_vertex_sets(), lp_predicate=st.sampled_from([None, "q", "absent"]))
@example(case=([(0, "A", None), (1, "B", 2000), (2, "C", None)], [(0, "p", 1), (0, "p", 0)], [2, 100, 2]), lp_predicate=None)
def test_dh_matches_sql(spark, pattern, case, lp_predicate):
    """Self-loops, exact duplicates, isolated and absent target ids (every
    target isolated gives an empty KG′), repeated ids and an empty target
    set; an LP bridge predicate that may be absent."""
    nodes, triples, chosen = case
    kg = case_kg(spark, nodes, triples)
    g = pd.DataFrame({"id": pd.Series(chosen, dtype="int64")})
    index = build_index(kg)
    try:
        kgp = extract_tosg(index, spark.createDataFrame(g, "id long"), pattern, lp_predicate=lp_predicate)
        sql = _tosg_sql(pattern.variant, lp_predicate)
        assert_equivalent(kgp.triples, sql, t=kg.triples, g=g)
        assert_equivalent(
            kgp.nodes,
            f"WITH x AS ({sql}) SELECT id, ntype, year FROM n WHERE id IN (SELECT s FROM x) OR id IN (SELECT o FROM x)",
            t=kg.triples,
            g=g,
            n=kg.nodes,
        )
    finally:
        index.unpersist()


def _half_of_pv(kg):
    return target_vertices(kg, TASKS["PV/MAG-42M"]).where(F.col("id") % 2 == 0)


@pytest.fixture(scope="module")
def half_pv_targets(mag_bundle):
    """Half of PV/MAG's targets, persisted. No fixture caches a KG′ of
    these, so Spark cannot answer an extraction from a cached result."""
    t = _half_of_pv(mag_bundle.kg).persist()
    t.count()
    yield t
    t.unpersist()


def _plan_nodes(df) -> list:
    """Every operator of ``df``'s final executed plan, adaptive query stages
    looked through; a cached input's own plan is not."""
    df.collect()  # the final adaptive plan exists once the query has run
    stack, out = [df._jdf.queryExecution().executedPlan()], []
    while stack:
        node = stack.pop()
        name = node.nodeName()
        if name == "AdaptiveSparkPlan":
            stack.append(node.executedPlan())
        elif name.endswith("QueryStage"):
            stack.append(node.plan())
        else:
            out.append(node)
            kids = node.children()
            stack.extend(kids.apply(i) for i in range(kids.size()))
    return out


def _cached(df):
    return df._jdf.queryExecution().withCachedData().cacheBuilder()


@pytest.mark.parametrize(
    "pattern, lp_predicate",
    [(p, None) for p in VARIATIONS] + [(TOSGPattern(2, 1), "affiliatedWith")],
    ids=lambda v: getattr(v, "variant", v),
)
def test_extraction_probes_the_index_in_place(mag_bundle, mag_index, half_pv_targets, pattern, lp_predicate):
    """KG′'s triples and vertex rows are broadcast semi-joins straight over
    the cached index layouts and vertex table, each in one partition. The
    only shuffle is the matched triples' into the row-order buckets, never
    a cached scan's (the layouts' own build exchange is not looked at)."""
    kgp = extract_tosg(mag_index, half_pv_targets, pattern, lp_predicate=lp_predicate)
    layouts = {"by_s": _cached(mag_index.by_s), "by_o": _cached(mag_index.by_o), "nodes": _cached(mag_bundle.kg.nodes)}
    want = {"by_s"} | ({"by_o"} if pattern.d == 2 else set())
    for df, leaves in ((kgp.triples, want), (kgp.nodes, want | {"nodes"})):
        ops = _plan_nodes(df)
        scans = {
            next((name for name, key in layouts.items() if op.relation().cacheBuilder().equals(key)), "other")
            for op in ops
            if op.nodeName() == "InMemoryTableScan"
        }
        assert scans == leaves
        exchanges = [op.simpleString(10) for op in ops if op.nodeName() == "Exchange"]
        assert len(exchanges) == 1
        assert re.fullmatch(rf"Exchange hashpartitioning\(s#\d+L, {ROW_ORDER_BUCKETS}\), REPARTITION_BY_NUM, \[plan_id=\d+\]", exchanges[0])
        assert any(op.nodeName() == "BroadcastHashJoin" and "LeftSemi" in op.simpleString(10) for op in ops)
        assert df.rdd.getNumPartitions() == 1


def _rows(kgp) -> tuple[pd.DataFrame, pd.DataFrame]:
    return kgp.nodes.toPandas(), kgp.triples.toPandas()


def test_d1h1_row_order_is_pinned(spark, mag_bundle, mag_index, half_pv_targets):
    """The same vertex and triple rows, in the same order, whatever
    ``spark.sql.shuffle.partitions`` is and whether the targets are
    persisted: vertex rows in bucketed key order, triples grouped by
    bucket in ascending order."""
    unpersisted = _half_of_pv(mag_bundle.kg)
    conf = "spark.sql.shuffle.partitions"
    before = spark.conf.get(conf)
    got = []
    try:
        for parts in ("64", "7"):
            spark.conf.set(conf, parts)
            got += [_rows(extract_tosg(mag_index, t, TOSGPattern(1, 1))) for t in (half_pv_targets, unpersisted)]
    finally:
        spark.conf.set(conf, before)
    for nodes, triples in got[1:]:
        pd.testing.assert_frame_equal(nodes, got[0][0])
        pd.testing.assert_frame_equal(triples, got[0][1])
    kgp = extract_tosg(mag_index, half_pv_targets, TOSGPattern(1, 1))
    bucket = lambda c: F.pmod(F.hash(c), F.lit(ROW_ORDER_BUCKETS))  # noqa: E731
    pd.testing.assert_frame_equal(got[0][0], kgp.nodes.orderBy(bucket("id"), "id").toPandas())
    buckets = kgp.triples.select(bucket("s").alias("b")).toPandas()["b"]
    assert buckets.is_monotonic_increasing
