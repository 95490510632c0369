"""The DuckDB oracle itself: it must accept equivalent results and reject
wrong ones — otherwise every downstream 'oracle-checked' test is vacuous."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from tests.oracle import assert_equivalent


def test_accepts_identical_result(spark):
    df = spark.createDataFrame(pd.DataFrame({"k": [1, 2, 3], "v": [1.0, 2.0, 3.0]}))
    assert_equivalent(df, "SELECT k, v FROM t ORDER BY k", t=df)


def test_accepts_permuted_rows_and_columns(spark):
    df = spark.createDataFrame(pd.DataFrame({"a": [1, 2], "b": ["x", "y"]}))
    flipped = df.select("b", "a").orderBy(F.desc("a"))
    assert_equivalent(flipped, "SELECT a, b FROM t", t=df)


def test_rejects_wrong_values(spark):
    df = spark.createDataFrame(pd.DataFrame({"k": [1, 2]}))
    with pytest.raises(AssertionError):
        assert_equivalent(df, "SELECT k + 1 AS k FROM t", t=df)


def test_rejects_missing_rows(spark):
    df = spark.createDataFrame(pd.DataFrame({"k": [1, 2, 3]}))
    with pytest.raises(AssertionError):
        assert_equivalent(df.limit(2), "SELECT k FROM t", t=df)


def test_rejects_column_name_mismatch(spark):
    df = spark.createDataFrame(pd.DataFrame({"k": [1]}))
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(df, "SELECT k AS other FROM t", t=df)


def test_accepts_pandas_table_inputs(spark):
    pdf = pd.DataFrame({"k": [1, 1, 2], "v": [10.0, 20.0, 30.0]})
    got = (
        spark.createDataFrame(pdf)
        .groupBy("k")
        .agg(F.sum("v").alias("total"))
    )
    assert_equivalent(got, "SELECT k, SUM(v) AS total FROM t GROUP BY k", t=pdf)


def test_float_rounding_tolerance(spark):
    pdf = pd.DataFrame({"v": [0.1234567891]})
    df = spark.createDataFrame(pd.DataFrame({"v": [0.1234567894]}))
    assert_equivalent(df, "SELECT v FROM t", t=pdf)
