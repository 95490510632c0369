"""Influence-based sampling (Algorithm 2): the driver-side PPR power
iteration is verified against a dense numpy reference (fixed graphs and a
hypothesis property test), its Spark access pattern by counting jobs, the
sampler's selection set against DuckDB SQL over reference scores, then the
sampler's selection invariants."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.ibs import ibs_sample, ppr
from repro.core.subgraph import materialize
from repro.core.walks import sample_vertices
from repro.kg import generator
from repro.kg.schema import KG, make_kg
from repro.tasks.defs import TASKS, target_vertices
from tests.oracle import assert_equivalent
from tests.strategies import count_jobs


@pytest.fixture(scope="module")
def small_kg(spark):
    """A 6-vertex graph with known structure for exact PPR comparison."""
    nodes = pd.DataFrame({"id": range(6), "ntype": ["T"] * 3 + ["U"] * 3, "year": pd.array([None] * 6, dtype="Int64")})
    triples = pd.DataFrame(
        {
            "s": [0, 0, 1, 2, 3, 4],
            "p": ["e"] * 6,
            "o": [1, 2, 3, 3, 4, 5],
        }
    )
    kg = materialize(make_kg(spark, "small", nodes, triples))  # cached now, so job counts see only PPR's jobs
    yield kg
    kg.unpersist()


def _reference_ppr(triples: pd.DataFrame, n: int, seed_rows, alpha: float, iters: int, eps: float = 0.0) -> np.ndarray:
    """Dense power iteration over all ``n`` vertices on the undirected 0/1
    adjacency (so a vertex's degree counts distinct neighbours), pruning
    scores below ``eps`` every round. Each distinct seed id starts with
    mass ``1 / len(seed_rows)``."""
    A = np.zeros((n, n))
    A[triples.s, triples.o] = 1.0
    A[triples.o, triples.s] = 1.0
    deg = A.sum(axis=1)
    p0 = np.zeros(n)
    p0[np.unique(np.asarray(seed_rows, dtype=np.int64))] = 1.0 / max(1, len(seed_rows))
    p = p0.copy()
    for _ in range(iters):
        p = alpha * p0 + (1 - alpha) * (A @ np.divide(p, deg, out=np.zeros(n), where=deg > 0))
        p[p < eps] = 0.0
    return p


def _ids_frame(spark, ids):
    return spark.createDataFrame(pd.DataFrame({"id": np.asarray(ids, dtype=np.int64)}), "id long")


def _ppr_frame(kg, seeds, *, alpha: float = 0.25, eps: float, iters: int) -> pd.DataFrame:
    """``ppr`` of the seed ids as a frame ``(id, score)``."""
    ids, score = ppr(kg, np.asarray(seeds, dtype=np.int64), alpha=alpha, eps=eps, iters=iters)
    return pd.DataFrame({"id": ids, "score": score})


def test_ppr_matches_dense_reference(small_kg):
    got = _ppr_frame(small_kg, [0], alpha=0.25, eps=0.0, iters=6)
    ref = _reference_ppr(small_kg.triples.toPandas(), 6, [0], 0.25, 6)
    got_full = np.zeros(6)
    got_full[got.id.to_numpy()] = got.score.to_numpy()
    np.testing.assert_allclose(got_full, ref, atol=1e-9)


@st.composite
def ppr_cases(draw):
    """Up to 30 vertices (isolated ones included), triples over 2 relations
    with self-loops and multi-edges, seed ids that may repeat or lie outside
    the graph, and ``eps`` either 0 or above 0."""
    n = draw(st.integers(1, 30))
    n_triples = draw(st.integers(0, 40))
    triples = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from("pq"), st.integers(0, n - 1)),
                            min_size=n_triples, max_size=n_triples))
    seeds = draw(st.lists(st.integers(0, n + 2), max_size=6))
    alpha = draw(st.sampled_from([0.15, 0.25, 0.5]))
    eps = draw(st.sampled_from([0.0, 1e-3, 0.02]))
    return n, triples, seeds, alpha, eps, draw(st.integers(0, 6))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(ppr_cases())
def test_ppr_matches_pruned_reference(spark, case):
    n, triples, seeds, alpha, eps, iters = case
    nodes = pd.DataFrame({"id": range(n), "ntype": "T", "year": [None] * n})
    trip = pd.DataFrame(triples, columns=["s", "p", "o"]).astype({"s": "int64", "o": "int64"})
    kg = make_kg(spark, "prop", nodes, trip)
    got = _ppr_frame(kg, seeds, alpha=alpha, eps=eps, iters=iters)
    ref = _reference_ppr(trip, n + 3, seeds, alpha, iters, eps)  # ids n..n+2 are absent from the KG
    assert sorted(got.id) == np.flatnonzero(ref).tolist()
    np.testing.assert_allclose(got.set_index("id").score.sort_index().to_numpy(), ref[ref > 0], rtol=1e-12)


def test_ppr_no_seeds_is_empty(small_kg):
    ids, score = ppr(small_kg, np.empty(0, np.int64), alpha=0.25, eps=0.0, iters=4)
    assert len(ids) == len(score) == 0


def test_ppr_isolated_seed_keeps_teleport_mass(spark):
    """An isolated seed only receives teleport mass: alpha over the number
    of seed rows, repeated rows counted."""
    nodes = pd.DataFrame({"id": [0, 1, 2], "ntype": ["T"] * 3, "year": [None] * 3})
    kg = make_kg(spark, "iso", nodes, pd.DataFrame({"s": [0], "p": ["e"], "o": [1]}))
    got = _ppr_frame(kg, [2, 2, 0], alpha=0.25, eps=0.0, iters=3)
    assert got.set_index("id").score[2] == 0.25 / 3


def test_ppr_collects_the_kg_once(spark, small_kg):
    """Spark's only work is one collection of the KG's ``(s, o)`` pairs, so
    the job count does not grow with the number of rounds: with ``eps=0``
    the frontier grows for 5 rounds, yet 1, 6 and 10 rounds run the same
    jobs."""
    seeds = np.array([0], np.int64)

    def jobs(iters: int) -> int:
        return count_jobs(spark, lambda: ppr(small_kg, seeds, alpha=0.25, eps=0.0, iters=iters))

    assert jobs(6) == jobs(10) == jobs(1) > 0


def test_ppr_mass_bounded(small_kg):
    p = _ppr_frame(small_kg, [0, 1], eps=0.0, iters=8)
    assert p.score.sum() <= 1.0 + 1e-9
    assert (p.score >= 0).all()


def test_ppr_seed_scores_dominate(small_kg):
    p = _ppr_frame(small_kg, [0], eps=0.0, iters=8).set_index("id")["score"]
    assert p[0] == p.max()


def test_ppr_eps_prunes(small_kg):
    dense = len(_ppr_frame(small_kg, [0], eps=0.0, iters=6))
    pruned = len(_ppr_frame(small_kg, [0], eps=0.05, iters=6))
    assert pruned <= dense


def test_ppr_unreachable_gets_no_mass(spark):
    nodes = pd.DataFrame({"id": [0, 1, 2], "ntype": ["T"] * 3, "year": pd.array([None] * 3, dtype="Int64")})
    triples = pd.DataFrame({"s": [0], "p": ["e"], "o": [1]})
    kg = make_kg(spark, "disc", nodes, triples)
    p = _ppr_frame(kg, [0], eps=0.0, iters=5)
    assert 2 not in set(p.id)


def test_ibs_selection_matches_oracle(spark):
    """KG′'s vertices are the seeds, the scored targets and the ``k·bs``
    top-scored non-targets (ties by id), from dense reference scores; ``k``
    is small enough that the top-k cut drops scored non-targets."""
    task = TASKS["CG/YAGO-30M"]
    b = generator.generate(task.kg_name, spark, sf=0.05, seed=1)
    targets = target_vertices(b.kg, task).persist()
    bs, k, alpha, eps, iters, seed = 25, 2, 0.25, 4e-4, 4, 1
    nodes = b.kg.nodes.select("id").toPandas()
    seeds = pd.DataFrame({"id": sample_vertices(targets, bs, seed=seed)})
    p = _reference_ppr(b.kg.triples.toPandas(), int(nodes.id.max()) + 1, seeds.id, alpha, iters, eps)
    scores = pd.DataFrame({"id": np.flatnonzero(p), "score": p[p > 0]})
    t = targets.toPandas()
    assert (~scores.id.isin(t.id)).sum() > k * bs
    sub = ibs_sample(b.kg, targets, bs=bs, k=k, alpha=alpha, eps=eps, iters=iters, seed=seed)
    assert_equivalent(
        sub.nodes.select("id"),
        f"""SELECT id FROM seeds
            UNION SELECT id FROM scores WHERE id IN (SELECT id FROM t)
            UNION (SELECT id FROM scores WHERE id NOT IN (SELECT id FROM t)
                   ORDER BY score DESC, id LIMIT {k * bs})""",
        seeds=seeds, scores=scores, t=t,
    )
    targets.unpersist()
    b.unpersist()


def test_ibs_top_k_ties_break_by_id(spark):
    """A target with five leaves: the leaves score the same, so the
    ``k·bs = 2`` cut keeps the two smallest ids."""
    nodes = pd.DataFrame({"id": range(6), "ntype": ["T"] + ["U"] * 5, "year": [None] * 6})
    kg = make_kg(spark, "star", nodes, pd.DataFrame({"s": [0] * 5, "p": ["e"] * 5, "o": [5, 3, 1, 4, 2]}))
    sub = ibs_sample(kg, _ids_frame(spark, [0]), bs=1, k=2, eps=0.0, iters=3)
    assert sorted(r.id for r in sub.nodes.collect()) == [0, 1, 2]


def test_generate_and_ibs_without_arrow(spark):
    """With Arrow off, every generator builds the same KG as with Arrow on
    (untimed years stay null), and IBS builds its id frames on that path."""
    key = "spark.sql.execution.arrow.pyspark.enabled"
    before = spark.conf.get(key)

    def nodes_of(name):
        b = generator.generate(name, spark, sf=0.02, seed=1)
        rows = sorted(tuple(r) for r in b.kg.nodes.collect())
        b.unpersist()
        return rows

    with_arrow = {name: nodes_of(name) for name in generator.GENERATORS}
    spark.conf.set(key, "false")
    try:
        assert {name: nodes_of(name) for name in generator.GENERATORS} == with_arrow
        task = TASKS["CG/YAGO-30M"]
        kg = generator.generate(task.kg_name, spark, sf=0.02, seed=1).kg
        targets = target_vertices(kg, task)
        sub = ibs_sample(kg, targets, bs=5, k=4, iters=2, seed=1)
        assert sub.nodes.join(targets, "id", "semi").count() >= 5
        assert sub.nodes.where(F.col("year").isNotNull()).count() > 0
    finally:
        spark.conf.set(key, before)


def test_ibs_independent_of_triple_partitioning(spark):
    """The same KG with its triples in 1 and in 7 partitions gives the same
    IBS vertex ids and the same ``(s, p, o)`` rows."""
    task = TASKS["CG/YAGO-30M"]
    b = generator.generate(task.kg_name, spark, sf=0.05, seed=1)
    targets = target_vertices(b.kg, task).persist()

    def sample(n: int) -> tuple[list, list]:
        kg = KG(name=b.kg.name, nodes=b.kg.nodes, triples=b.kg.triples.repartition(n))
        sub = ibs_sample(kg, targets, bs=25, k=4, eps=4e-4, iters=4, seed=1)
        return sorted(r.id for r in sub.nodes.select("id").collect()), sorted(map(tuple, sub.triples.collect()))

    one = sample(1)
    assert one == sample(7)
    assert len(one[0]) > 25 and one[1]
    targets.unpersist()
    b.unpersist()


def test_ibs_contains_seed_targets(mag_bundle, mag_pv_targets):
    sub = ibs_sample(mag_bundle.kg, mag_pv_targets, bs=20, k=8, iters=5, seed=3)
    assert sub.nodes.join(mag_pv_targets, "id", "semi").count() >= 20


def test_ibs_subgraph_is_induced(mag_bundle, mag_pv_targets):
    sub = ibs_sample(mag_bundle.kg, mag_pv_targets, bs=15, k=8, iters=5, seed=4)
    assert_equivalent(
        sub.triples,
        """SELECT t.s, t.p, t.o FROM t
           WHERE t.s IN (SELECT id FROM v) AND t.o IN (SELECT id FROM v)""",
        t=mag_bundle.kg.triples,
        v=sub.nodes.select("id"),
    )


def test_ibs_neighbour_budget(mag_bundle, mag_pv_targets):
    """Non-target vertices are capped at k*bs (the top-k selection)."""
    bs, k = 15, 4
    sub = ibs_sample(mag_bundle.kg, mag_pv_targets, bs=bs, k=k, iters=5, seed=5)
    non_targets = sub.nodes.join(mag_pv_targets, "id", "anti").count()
    assert non_targets <= k * bs


def test_ibs_excludes_noise(mag_bundle, mag_pv_targets):
    sub = ibs_sample(mag_bundle.kg, mag_pv_targets, bs=15, k=8, iters=5, seed=6)
    assert sub.nodes.where(F.col("ntype").startswith("magN")).count() == 0
