"""GNN task definitions — the paper's Table II.

Node classification (Def 2.2): ``NC(KG, V_T, c_T)`` predicts a single label
for every target vertex of type ``c_T``. Link prediction (Def 2.3):
``LP(KG, V_T, C_T, p_T)`` predicts the missing entity completing
``⟨v_t, p_T, ?⟩`` for one task predicate ``p_T``.

The registry mirrors Table II exactly: task type, name, KG, split kind,
split ratios, metric.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.kg.schema import KG


@dataclass(frozen=True)
class Task:
    """One benchmark task (a row of Table II)."""

    name: str  # short name, e.g. "PV"
    tt: str  # "NC" or "LP"
    kg_name: str  # key into repro.kg.generator.GENERATORS
    target_type: str  # c_T — node type of the target vertices
    split: str  # "time" or "random"
    ratios: tuple[float, float, float]  # train / valid / test
    metric: str  # "Accuracy" or "Hits@10"
    label_key: str | None = None  # NC: key into KGBundle.labels
    n_classes: int | None = None  # NC: label arity
    predicate: str | None = None  # LP: the task predicate p_T

    @property
    def key(self) -> str:
        return f"{self.name}/{self.kg_name}"


TASKS: dict[str, Task] = {
    t.key: t
    for t in [
        Task("PV", "NC", "MAG-42M", "Paper", "time", (0.84, 0.09, 0.07), "Accuracy", "PV", 16),
        Task("PD", "NC", "MAG-42M", "Paper", "time", (0.87, 0.08, 0.05), "Accuracy", "PD", 8),
        Task("PC", "NC", "YAGO-30M", "Place", "random", (0.80, 0.10, 0.10), "Accuracy", "PC", 12),
        Task("CG", "NC", "YAGO-30M", "CreativeWork", "random", (0.80, 0.10, 0.10), "Accuracy", "CG", 8),
        Task("PV", "NC", "DBLP-15M", "Paper", "time", (0.79, 0.10, 0.11), "Accuracy", "PV", 16),
        Task("AC", "NC", "DBLP-15M", "Author", "time", (0.80, 0.10, 0.10), "Accuracy", "AC", 8),
        Task("AA", "LP", "DBLP-15M", "Author", "time", (0.99, 0.007, 0.003), "Hits@10", predicate="affiliatedWith"),
        Task("PO", "LP", "ogbl-wikikg2", "Person", "time", (0.94, 0.025, 0.035), "Hits@10", predicate="occupation"),
        Task("CA", "LP", "YAGO3-10", "Person", "random", (0.99, 0.005, 0.005), "Hits@10", predicate="isCitizenOf"),
    ]
}

NC_TASKS = {k: t for k, t in TASKS.items() if t.tt == "NC"}
LP_TASKS = {k: t for k, t in TASKS.items() if t.tt == "LP"}


def target_vertices(kg: KG, task: Task) -> DataFrame:
    """``V_T`` — one ``id`` column.

    NC: all vertices of the target type. LP: all vertices incident to the
    task predicate ``p_T`` (the "known vertex" side of ⟨v_t, p_T, ?⟩ plus
    the answer entities, both of which anchor the d2h1 pattern).
    """
    if task.tt == "NC":
        return kg.vertices_of_type(task.target_type)
    pt = lp_triples(kg, task)
    return (
        pt.select(F.col("s").alias("id"))
        .unionByName(pt.select(F.col("o").alias("id")))
        .distinct()
    )


def lp_triples(kg: KG, task: Task) -> DataFrame:
    """All ``(s, p, o)`` triples of the LP task predicate."""
    assert task.tt == "LP" and task.predicate is not None
    return kg.triples.where(F.col("p") == task.predicate)
