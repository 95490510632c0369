"""Train/valid/test splitters with Table II's two schemes.

- ``time``: examples ordered by a timestamp column (oldest → train, most
  recent → test), as OGB's MAG/wikikg2 splits do; cut points are chosen so
  the resulting fractions match the task's ratios.
- ``random``: stratified random split — within each label the ratios hold,
  so rare classes appear in every fold.

Both return the input DataFrame plus a ``split`` column in
{"train", "valid", "test"} and are deterministic (time: total order by
(year, id); random: ``rand(SPLIT_SEED)``).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.tasks.defs import Task, lp_triples

SPLITS = ("train", "valid", "test")
# ``random_split``'s ``rand`` seed, the same for every task (Table II).
SPLIT_SEED = 7


def _assign(df: DataFrame, frac_col: str, ratios: tuple[float, float, float]) -> DataFrame:
    t, v, _ = ratios
    return df.withColumn(
        "split",
        F.when(F.col(frac_col) <= t, "train")
        .when(F.col(frac_col) <= t + v, "valid")
        .otherwise("test"),
    ).drop(frac_col)


def time_split(df: DataFrame, ratios: tuple[float, float, float], *, id_col: str = "id") -> DataFrame:
    """Split by time: rank rows by (year, id) and cut at the ratio points."""
    w = Window.orderBy(F.col("year").asc_nulls_last(), F.col(id_col))
    ranked = df.withColumn("_frac", F.percent_rank().over(w))
    return _assign(ranked, "_frac", ratios)


def random_split(
    df: DataFrame,
    ratios: tuple[float, float, float],
    *,
    label_col: str | None = None,
) -> DataFrame:
    """Random split; stratified per label when ``label_col`` is given."""
    r = df.withColumn("_r", F.rand(SPLIT_SEED))
    part = Window.partitionBy(label_col) if label_col else Window.partitionBy(F.lit(1))
    ranked = r.withColumn("_frac", F.percent_rank().over(part.orderBy("_r"))).drop("_r")
    return _assign(ranked, "_frac", ratios)


def nc_frame(bundle, task: Task) -> DataFrame:
    """Full NC supervision frame ``(id, label, year, split)`` for a task:
    ground-truth labels joined with target-node years, split per Table II."""
    labels = bundle.labels[task.label_key]
    with_year = labels.join(bundle.kg.nodes.select("id", "year"), "id")
    if task.split == "time":
        return time_split(with_year, task.ratios)
    return random_split(with_year, task.ratios, label_col="label")


def lp_frame(bundle, task: Task) -> DataFrame:
    """Full LP frame ``(s, p, o, year, split)``: the task predicate's
    triples with the subject's year, split per Table II."""
    pt = lp_triples(bundle.kg, task)
    with_year = pt.join(
        bundle.kg.nodes.select(F.col("id").alias("s"), "year"), "s"
    )
    if task.split == "time":
        return time_split(with_year, task.ratios, id_col="s")
    return random_split(with_year, task.ratios)


def split_fractions(split_df: DataFrame) -> dict[str, float]:
    """Measured fold fractions — the 'Ratio' column of Table II."""
    counts = {r["split"]: r["count"] for r in split_df.groupBy("split").count().collect()}
    total = sum(counts.values())
    return {s: counts.get(s, 0) / total for s in SPLITS}
