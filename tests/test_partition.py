"""Hexastore-style triple indices: every lookup of a layout (a
``subgraph.probe`` of ``by_s``/``by_o``, or a predicate filter of ``by_s``)
must equal the naive full-scan answer (oracle-checked)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.subgraph import probe
from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def some_targets(mag_bundle):
    t = mag_bundle.kg.vertices_of_type("Paper").limit(50).persist()
    t.count()
    yield t
    t.unpersist()


def test_outgoing_matches_full_scan(mag_index, some_targets):
    got = probe(mag_index.by_s, "s", some_targets)
    assert_equivalent(
        got.select("s", "p", "o"),
        "SELECT t.s, t.p, t.o FROM t JOIN v ON t.s = v.id",
        t=mag_index.kg.triples,
        v=some_targets,
    )


def test_incoming_matches_full_scan(mag_index, some_targets):
    got = probe(mag_index.by_o, "o", some_targets)
    assert_equivalent(
        got.select("s", "p", "o"),
        "SELECT t.s, t.p, t.o FROM t JOIN v ON t.o = v.id",
        t=mag_index.kg.triples,
        v=some_targets,
    )


@pytest.mark.parametrize("pred", ["hasTopic", "cites", "hasCreator"])
def test_predicate_scan_matches_filter(mag_index, pred):
    got = mag_index.by_s.where(F.col("p") == pred)
    assert_equivalent(
        got.select("s", "p", "o"),
        f"SELECT s, p, o FROM t WHERE p = '{pred}'",
        t=mag_index.kg.triples,
    )


def test_index_layouts_preserve_triple_count(mag_index):
    n = mag_index.kg.triples.count()
    assert mag_index.by_s.count() == n
    assert mag_index.by_o.count() == n


def test_outgoing_empty_targets(spark, mag_index):
    empty = spark.createDataFrame(
        pd.DataFrame({"id": pd.array([], dtype="int64")}), schema="id long"
    )
    assert probe(mag_index.by_s, "s", empty).count() == 0


def test_semi_join_returns_triple_columns_only(mag_index, some_targets):
    assert probe(mag_index.by_s, "s", some_targets).columns == ["s", "p", "o"]
    assert probe(mag_index.by_o, "o", some_targets).columns == ["o", "s", "p"] or set(
        probe(mag_index.by_o, "o", some_targets).columns
    ) == {"s", "p", "o"}
