"""KG data model helpers (Definition 2.1): the driver-side codes of
``KG.local()`` against the fixture's lists, and undirected edges
oracle-checked."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.kg.schema import make_kg
from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def tiny_kg(spark):
    nodes = pd.DataFrame(
        {"id": [0, 1, 2, 3], "ntype": ["A", "A", "B", "C"], "year": pd.array([2000, None, 2001, None], dtype="Int64")}
    )
    triples = pd.DataFrame({"s": [0, 1, 2], "p": ["x", "x", "y"], "o": [2, 2, 3]})
    kg = make_kg(spark, "tiny", nodes, triples).persist()
    yield kg
    kg.unpersist()


def test_counts(tiny_kg):
    g = tiny_kg.local()
    assert len(g.ids) == 4
    assert len(g.spo) == 3


def test_type_sets(tiny_kg):
    g = tiny_kg.local()
    assert list(g.ntype_names) == ["A", "B", "C"]
    assert list(g.rel_names) == ["x", "y"]


def test_local_codes(tiny_kg):
    """Vertices in row order, ntype codes, and each triple as
    (s position, relation code, o position) in row order."""
    g = tiny_kg.local()
    assert g.ids.tolist() == [0, 1, 2, 3]
    assert g.ntype.tolist() == [0, 0, 1, 2]
    assert g.spo.dtype == "int64" and g.spo.tolist() == [[0, 0, 2], [1, 0, 2], [2, 1, 3]]
    assert tiny_kg.local() is g


def test_vertices_of_type(tiny_kg):
    assert {r["id"] for r in tiny_kg.vertices_of_type("A").collect()} == {0, 1}
    assert tiny_kg.vertices_of_type("Z").count() == 0


def test_undirected_edges_symmetric(tiny_kg):
    und = tiny_kg.undirected_edges().toPandas()
    pairs = set(zip(und["src"], und["dst"]))
    assert all((b, a) in pairs for a, b in pairs)


def test_undirected_edges_against_oracle(tiny_kg):
    got = tiny_kg.undirected_edges()
    assert_equivalent(
        got,
        """SELECT DISTINCT src, dst FROM (
             SELECT s AS src, o AS dst FROM t
             UNION ALL SELECT o AS src, s AS dst FROM t)""",
        t=tiny_kg.triples,
    )


def test_year_nullability(tiny_kg):
    years = tiny_kg.nodes.where(F.col("year").isNotNull()).count()
    assert years == 2


def test_schema_enforced(tiny_kg):
    assert dict(tiny_kg.nodes.dtypes)["id"] == "bigint"
    assert dict(tiny_kg.triples.dtypes) == {"s": "bigint", "p": "string", "o": "bigint"}
