"""SPARQL-based TOSG extraction (Algorithm 3): every d/h variation is
oracle-checked against the equivalent SQL over the raw triple table, and
an empty target set has a defined result."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.pattern import VARIATIONS, TOSGPattern
from repro.core.sparql_extract import extract_tosg
from repro.kg.partition import build_index
from repro.kg.schema import make_kg
from repro.oracle import assert_equivalent
from repro.tasks.defs import TASKS, target_vertices


def test_d1h1_matches_oracle(mag_index, mag_pv_targets):
    kgp = extract_tosg(mag_index, mag_pv_targets, TOSGPattern(1, 1))
    assert_equivalent(
        kgp.triples,
        "SELECT DISTINCT t.s, t.p, t.o FROM t WHERE t.s IN (SELECT id FROM g)",
        t=mag_index.kg.triples,
        g=mag_pv_targets,
    )


def test_d2h1_matches_oracle(mag_index, mag_pv_targets):
    kgp = extract_tosg(mag_index, mag_pv_targets, TOSGPattern(2, 1))
    assert_equivalent(
        kgp.triples,
        """SELECT DISTINCT t.s, t.p, t.o FROM t
           WHERE t.s IN (SELECT id FROM g) OR t.o IN (SELECT id FROM g)""",
        t=mag_index.kg.triples,
        g=mag_pv_targets,
    )


def test_d1h2_matches_oracle(mag_index, mag_pv_targets):
    kgp = extract_tosg(mag_index, mag_pv_targets, TOSGPattern(1, 2))
    assert_equivalent(
        kgp.triples,
        """SELECT DISTINCT t.s, t.p, t.o FROM t
           WHERE t.s IN (SELECT id FROM g)
              OR t.s IN (SELECT t2.o FROM t t2 WHERE t2.s IN (SELECT id FROM g))""",
        t=mag_index.kg.triples,
        g=mag_pv_targets,
    )


def test_d2h2_matches_oracle(mag_index, mag_pv_targets):
    kgp = extract_tosg(mag_index, mag_pv_targets, TOSGPattern(2, 2))
    assert_equivalent(
        kgp.triples,
        """WITH hop1 AS (
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
        t=mag_index.kg.triples,
        g=mag_pv_targets,
    )


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


def test_extraction_is_deterministic(mag_index, mag_pv_targets):
    a = extract_tosg(mag_index, mag_pv_targets, TOSGPattern(1, 1)).triples.orderBy("s", "p", "o").toPandas()
    b = extract_tosg(mag_index, mag_pv_targets, TOSGPattern(1, 1)).triples.orderBy("s", "p", "o").toPandas()
    assert a.equals(b)


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
