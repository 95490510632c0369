"""Random-walk samplers (Algorithm 1 BRW, and URW: BRW rooted at every
vertex): Spark's draws reproduced exactly, the walk against a Spark step
loop, invariants of the samples, and the samplers on degenerate inputs."""
import warnings

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.bench.tables import _quality
from repro.core.brw import brw_sample
from repro.core.ibs import ibs_sample
from repro.core.subgraph import collect_ids
from repro.core.walks import SparkRand, random_walk_visited, sample_vertices
from repro.kg.schema import make_kg
from tests.oracle import spark_walk_visited
from tests.strategies import case_kg


@pytest.fixture(scope="module")
def path_kg(spark):
    """A directed path 0→1→2→3→4 plus an isolated vertex 9."""
    nodes = pd.DataFrame({"id": [0, 1, 2, 3, 4, 9], "ntype": ["T"] * 6, "year": pd.array([None] * 6, dtype="Int64")})
    triples = pd.DataFrame({"s": [0, 1, 2, 3], "p": ["next"] * 4, "o": [1, 2, 3, 4]})
    kg = make_kg(spark, "path", nodes, triples).persist()
    yield kg
    kg.unpersist()


def test_sample_vertices_size_and_membership(mag_bundle):
    roots = sample_vertices(mag_bundle.kg.nodes, 25, seed=1)
    assert roots.dtype == np.int64 and len(roots) == 25
    assert np.isin(roots, collect_ids(mag_bundle.kg.nodes)).all()


def test_sample_vertices_no_duplicates(mag_bundle):
    roots = sample_vertices(mag_bundle.kg.nodes, 40, seed=2)
    assert len(np.unique(roots)) == 40


def test_walk_includes_roots(path_kg):
    visited = random_walk_visited(path_kg, np.array([0, 9]), h=2, seed=0)
    assert {0, 9} <= set(visited.tolist())


def test_walk_returns_sorted_unique_ids(path_kg):
    visited = random_walk_visited(path_kg, np.array([4, 0, 2, 0]), h=3, seed=1)
    assert visited.dtype == np.int64 and visited.tolist() == sorted(set(visited.tolist()))


def test_walk_respects_reachability(path_kg):
    """From vertex 0 with h=2 the walk can reach at most {0,1,2} (the walk
    is undirected but a single walker can't pass vertex 2)."""
    visited = set(random_walk_visited(path_kg, np.array([0]), h=2, seed=3).tolist())
    assert visited <= {0, 1, 2}
    assert len(visited) >= 2  # vertex 0 must move to 1 (its only neighbour)


def test_isolated_root_stays_put(path_kg):
    visited = set(random_walk_visited(path_kg, np.array([9]), h=3, seed=0).tolist())
    assert visited == {9}


def test_visited_bounded_by_walk_budget(mag_bundle):
    bs, h = 20, 3
    roots = sample_vertices(mag_bundle.kg.nodes, bs, seed=5)
    visited = random_walk_visited(mag_bundle.kg, roots, h, seed=5)
    assert len(visited) <= bs * (h + 1)


def test_urw_sample_is_subgraph(mag_bundle):
    sub = brw_sample(mag_bundle.kg, mag_bundle.kg.nodes, bs=20, h=2, seed=7)
    assert sub.nodes.join(mag_bundle.kg.nodes, "id", "anti").count() == 0
    assert sub.triples.count() <= mag_bundle.kg.triples.count()


def test_brw_roots_come_from_targets(mag_bundle, mag_pv_targets):
    """Every BRW walk starts at a target vertex, so every visited vertex is
    within h hops of a target — the sample must contain targets."""
    sub = brw_sample(mag_bundle.kg, mag_pv_targets, bs=20, h=2, seed=7)
    n_targets = sub.nodes.join(mag_pv_targets, "id", "semi").count()
    assert n_targets > 0
    assert n_targets >= 20  # at least the roots themselves


def test_brw_targets_denser_than_urw(mag_bundle, mag_pv_targets):
    """The paper's central data-sufficiency claim at sampler level."""
    urw = brw_sample(mag_bundle.kg, mag_bundle.kg.nodes, bs=40, h=3, seed=11)
    brw = brw_sample(mag_bundle.kg, mag_pv_targets, bs=40, h=3, seed=11)

    def ratio(sub):
        return sub.nodes.join(mag_pv_targets, "id", "semi").count() / sub.nodes.count()

    assert ratio(brw) > ratio(urw)


def test_walker_deterministic_given_seed(path_kg):
    roots = np.array([0, 2])
    a = random_walk_visited(path_kg, roots, 3, seed=42)
    b = random_walk_visited(path_kg, roots, 3, seed=42)
    assert a.tolist() == b.tolist()


@pytest.mark.parametrize("seed", [0, 7, -5, 2**31 + 3, 11 + 1000 * 2])
def test_spark_rand_matches_spark(spark, seed):
    want = [r[0] for r in spark.range(300).coalesce(1).select(F.rand(seed)).collect()]
    assert SparkRand(seed).doubles(300).tolist() == want


@pytest.mark.parametrize("roots,h,seed", [([0, 2, 4, 9], 4, 0), ([1, 2, 3], 3, 5), ([0, 1, 2, 3, 4], 2, 12)])
def test_walk_matches_spark_step_loop_on_a_path(path_kg, roots, h, seed):
    """Several walkers on one vertex and walkers stranded at vertex 9."""
    r = np.array(roots)
    got = random_walk_visited(path_kg, r, h, seed=seed)
    assert got.tolist() == spark_walk_visited(path_kg, r, h, seed=seed).tolist()


@pytest.mark.parametrize("bs,h,seed", [(10, 1, 1), (25, 3, 4), (40, 2, 9)])
def test_walk_matches_spark_step_loop_on_mag(mag_bundle, bs, h, seed):
    roots = sample_vertices(mag_bundle.kg.nodes, bs, seed=seed)
    got = random_walk_visited(mag_bundle.kg, roots, h, seed=seed)
    assert got.tolist() == spark_walk_visited(mag_bundle.kg, roots, h, seed=seed).tolist()


# Degenerate inputs. Targets 0-2 (type T) have no triples; 10-13 (type U)
# form a path, or have no triples either.
_TARGETS = {0, 1, 2}
_NODES = [(v, "T", None) for v in sorted(_TARGETS)] + [(v, "U", None) for v in (10, 11, 12, 13)]
_PATH = [(10, "r", 11), (11, "r", 12), (12, "r", 13)]
_SAMPLERS = {
    "URW": lambda kg, t, bs, h: brw_sample(kg, kg.nodes, bs=bs, h=h, seed=3),
    "BRW": lambda kg, t, bs, h: brw_sample(kg, t, bs=bs, h=h, seed=3),
    "IBS": lambda kg, t, bs, h: ibs_sample(kg, t, bs=bs, iters=h, seed=3),
}


@pytest.mark.parametrize("method", list(_SAMPLERS))
@pytest.mark.parametrize(
    "triples,bs,h",
    [([], 2, 2), (_PATH, 2, 2), (_PATH, 3, 0), (_PATH, 9, 2)],
    ids=["no_triples", "isolated_targets", "h0", "bs_over_targets"],
)
def test_sampler_on_degenerate_input(spark, method, triples, bs, h):
    """URW draws ``bs`` roots from all vertices, BRW and IBS from the
    targets (``h`` is IBS's PPR iterations), all of them when ``bs``
    exceeds their number. With ``h=0``, or where the roots have no
    triples, the sample is the roots and the triples among them; only
    URW's roots on the path walk on. Scoring a sample emits no numpy
    warning."""
    kg = case_kg(spark, _NODES, triples)
    targets = spark.createDataFrame([(v,) for v in sorted(_TARGETS)], "id long")
    pool = kg.nodes if method == "URW" else targets
    roots = set(sample_vertices(pool, bs, seed=3).tolist())
    assert len(roots) == min(bs, pool.count())

    sub = _SAMPLERS[method](kg, targets, bs, h)
    got = set(collect_ids(sub.nodes).tolist())
    if method == "URW" and triples and h > 0:
        assert roots <= got and got & _TARGETS == roots & _TARGETS
    else:
        assert got == roots
    trip = sub.triples.toPandas()
    assert sorted(zip(trip.s, trip.o)) == [(s, o) for s, _, o in triples if {s, o} <= got]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error", RuntimeWarning)
        q = _quality(sub, targets)
    assert (q["nodes"], q["V_T"]) == (len(got), len(got & _TARGETS))
