"""KG statistics (Table I columns) — every aggregate oracle-checked."""
import pandas as pd
import pytest

from repro.kg.stats import kg_stats
from tests.oracle import assert_equivalent


def test_kg_stats_against_oracle(spark, mag_bundle):
    kg = mag_bundle.kg
    st = kg_stats(kg)
    got = spark.createDataFrame(pd.DataFrame([{k: v for k, v in st.items() if k != "kg"}]))
    assert_equivalent(
        got,
        """SELECT (SELECT COUNT(*) FROM n) AS nodes,
                  (SELECT COUNT(*) FROM t) AS edges,
                  (SELECT COUNT(DISTINCT ntype) FROM n) AS n_type,
                  (SELECT COUNT(DISTINCT p) FROM t) AS e_type""",
        n=kg.nodes,
        t=kg.triples,
    )


@pytest.mark.parametrize("col", ["nodes", "edges", "n_type", "e_type"])
def test_stats_keys_present(mag_bundle, col):
    assert col in kg_stats(mag_bundle.kg)
