"""Hypothesis strategies shared by the property tests, the KG a drawn case
describes, and a count of the Spark jobs a call runs."""
import itertools

import pandas as pd
from hypothesis import strategies as st

from repro.kg.schema import make_kg


@st.composite
def kgs_and_vertex_sets(draw):
    """Up to 30 vertices (the last one always isolated) and up to 40 triples
    over 2 relations, with a self-loop, an exact duplicate and a second
    relation on one vertex pair; a vertex set that repeats ids and may hold
    ids absent from the KG (100-102)."""

    def sized(elements, most, **kw):
        # a size uniform in [0, most]; hypothesis's own list sizes lean small
        n = draw(st.integers(0, most))
        return draw(st.lists(elements, min_size=n, max_size=n, **kw))

    ids = sized(st.integers(0, 99), 30, unique=True)
    nodes = [(v, draw(st.sampled_from("ABC")), draw(st.none() | st.integers(1990, 2020))) for v in ids]
    triples = []
    if len(ids) > 1:
        triples = sized(st.tuples(st.sampled_from(ids[:-1]), st.sampled_from("pq"), st.sampled_from(ids[:-1])), 37)
    if triples:
        s, p, o = triples[0]
        triples += [(s, p, s), (s, p, o), (s, "q" if p == "p" else "p", o)]
    chosen = sized(st.sampled_from(ids) | st.integers(100, 102) if ids else st.integers(100, 102), 12)
    return nodes, triples, chosen + chosen[: len(chosen) // 2]


def case_kg(spark, nodes, triples):
    """The KG of a drawn case's ``(id, ntype, year)`` and ``(s, p, o)`` rows."""
    return make_kg(
        spark,
        "prop",
        pd.DataFrame(nodes, columns=["id", "ntype", "year"]).astype({"id": "int64", "ntype": "object"}),
        pd.DataFrame(triples, columns=["s", "p", "o"]).astype({"s": "int64", "p": "object", "o": "int64"}),
    )


_groups = itertools.count()


def count_jobs(spark, fn) -> int:
    """The number of Spark jobs ``fn()`` runs, counted by job group."""
    sc = spark.sparkContext
    group = f"test-jobs-{next(_groups)}"
    sc.setJobGroup(group, "count jobs")
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))
