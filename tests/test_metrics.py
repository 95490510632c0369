"""Quality indicators (Table III columns): the CSR BFS, hand-computed
entropy cases, defined results on degenerate inputs, DuckDB oracle checks
on real samples, and a property test against plain-Python definitions."""
import math
from collections import Counter

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.schema import make_kg
from repro.metrics.sufficiency import sufficiency_stats
from repro.metrics.topology import (
    _collect,
    avg_distance_to_targets,
    bfs,
    neighbour_type_entropy,
    target_disconnected_pct,
)
from repro.oracle import assert_equivalent


def _kg(spark, name, types: dict, edges: list):
    """KG from ``{id: ntype}`` and ``(s, o)`` or ``(s, p, o)`` edges."""
    nodes = pd.DataFrame(
        {
            "id": pd.Series(list(types), dtype="int64"),
            "ntype": pd.Series(list(types.values()), dtype="object"),
            "year": pd.array([None] * len(types), dtype="Int64"),
        }
    )
    triples = pd.DataFrame(
        [(e[0], "e", e[1]) if len(e) == 2 else e for e in edges], columns=["s", "p", "o"]
    ).astype({"s": "int64", "p": "object", "o": "int64"})
    return make_kg(spark, name, nodes, triples)


@pytest.fixture(scope="module")
def line_kg(spark):
    """Path 0-1-2-3-4 plus disconnected pair 7-8. Type T at 0, U elsewhere."""
    types = {0: "T", 1: "U", 2: "U", 3: "U", 4: "U", 7: "U", 8: "U"}
    kg = _kg(spark, "line", types, [(0, 1), (1, 2), (2, 3), (3, 4), (7, 8)]).persist()
    yield kg
    kg.unpersist()


@pytest.fixture(scope="module")
def t_of(spark):
    def make(ids):
        return spark.createDataFrame(pd.DataFrame({"id": pd.Series(ids, dtype="int64")}), "id long")

    return make


def _bfs_ids(kg, sources, max_hops=15) -> dict:
    """``bfs`` over ``kg``'s CSR with vertex ids in and out; unreached
    vertices are left out."""
    g = _collect(kg)
    ids = g.nodes["id"].to_numpy()
    d = bfs(g.indptr, g.nbrs, pd.Index(ids).get_indexer(sources), max_hops)
    return {int(i): int(x) for i, x in zip(ids, d) if x >= 0}


def test_bfs_distances_exact(line_kg):
    assert _bfs_ids(line_kg, [0]) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def test_bfs_multi_source_takes_minimum(line_kg):
    d = _bfs_ids(line_kg, [0, 4])
    assert d[2] == 2 and d[1] == 1 and d[3] == 1


def test_bfs_respects_max_hops(line_kg):
    d = _bfs_ids(line_kg, [0], max_hops=2)
    assert max(d.values()) == 2
    assert len(d) == 3


def test_bfs_is_undirected(line_kg):
    d = _bfs_ids(line_kg, [4])
    assert d[0] == 4  # edges point 0→4 but BFS walks both ways


def test_disconnected_pct_exact(line_kg, t_of):
    # targets {0}: non-targets are 1,2,3,4 (connected) and 7,8 (not) → 2/6
    pct = target_disconnected_pct(line_kg, t_of([0]))
    assert pct == pytest.approx(100 * 2 / 6)
    assert target_disconnected_pct(line_kg, t_of([0, 0, 0])) == pct


def test_disconnected_pct_zero_when_all_connected(spark, t_of):
    kg = _kg(spark, "pair", {0: "T", 1: "U"}, [(0, 1)])
    assert target_disconnected_pct(kg, t_of([0])) == 0.0
    assert target_disconnected_pct(kg, t_of([0, 1])) == 0.0  # no non-target at all


def test_disconnected_pct_hundred_when_no_target_present(line_kg, t_of):
    # target id 99 is not in the graph at all; no target id behaves the same
    assert target_disconnected_pct(line_kg, t_of([99])) == 100.0
    assert target_disconnected_pct(line_kg, t_of([])) == 100.0


def test_avg_distance_on_path(line_kg, t_of):
    # single target 0: distances of connected non-targets are 1,2,3,4 → 2.5
    d = avg_distance_to_targets(line_kg, t_of([0]), n_sources=1, seed=0)
    assert d == pytest.approx(2.5)
    assert avg_distance_to_targets(line_kg, t_of([0, 0]), n_sources=1, seed=0) == d


def test_avg_distance_nan_without_targets(line_kg, t_of):
    assert math.isnan(avg_distance_to_targets(line_kg, t_of([99])))
    assert math.isnan(avg_distance_to_targets(line_kg, t_of([])))


def test_entropy_uniform_counts_is_zero(spark):
    """All vertices with the same neighbour-type count → H = 0."""
    kg = _kg(spark, "h0", {0: "A", 1: "B"}, [(0, 1)])
    assert neighbour_type_entropy(kg) == pytest.approx(0.0)


def test_entropy_hand_computed(spark):
    """Star: center 0 (type A) with neighbours of types B and C; leaves see
    1 type; counts = [2, 1, 1] → H = -(1/3·log2(1/3)·1 + 2/3·log2(2/3))."""
    kg = _kg(spark, "star", {0: "A", 1: "B", 2: "C"}, [(0, 1), (0, 2)])
    expect = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
    assert neighbour_type_entropy(kg) == pytest.approx(expect)


def test_entropy_counts_isolated_vertices(spark):
    kg = _kg(spark, "iso", {0: "A", 1: "B", 9: "A"}, [(0, 1)])
    # counts: [1, 1, 0] → p = [2/3, 1/3]
    expect = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
    assert neighbour_type_entropy(kg) == pytest.approx(expect)


def test_entropy_self_loop_counts_own_type(spark, t_of):
    """0 (A) has a self-loop and an edge to 1 (B): 0 sees {A, B}, 1 sees
    {A} → counts [2, 1] → H = 1. The loop adds no distance."""
    kg = _kg(spark, "loop", {0: "A", 1: "B"}, [(0, 0), (0, 1)])
    assert neighbour_type_entropy(kg) == pytest.approx(1.0)
    assert avg_distance_to_targets(kg, t_of([0])) == 1.0
    assert target_disconnected_pct(kg, t_of([0])) == 0.0


def test_all_isolated_vertices(spark, t_of):
    kg = _kg(spark, "isolated", {0: "A", 1: "B", 2: "B"}, [])
    t = t_of([0])
    assert sufficiency_stats(kg, t) == {"V_T": 1, "V_T_pct": 100 / 3, "C'": 2, "R'": 0, "nodes": 3}
    assert target_disconnected_pct(kg, t) == 100.0
    assert math.isnan(avg_distance_to_targets(kg, t))
    h = neighbour_type_entropy(kg)  # every count is 0
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_empty_kgp(spark, t_of):
    kg = _kg(spark, "empty", {}, [])
    t = t_of([0])
    assert sufficiency_stats(kg, t) == {"V_T": 0, "V_T_pct": 0.0, "C'": 0, "R'": 0, "nodes": 0}
    assert target_disconnected_pct(kg, t) == 0.0
    assert math.isnan(avg_distance_to_targets(kg, t))
    h = neighbour_type_entropy(kg)
    assert h == 0.0 and math.copysign(1.0, h) == 1.0  # not -0.0


def test_sufficiency_counts_against_oracle(spark, mag_d1h1, mag_pv_targets):
    s = sufficiency_stats(mag_d1h1, mag_pv_targets)
    got = spark.createDataFrame(pd.DataFrame([{"V_T": s["V_T"], "nodes": s["nodes"], "ct": s["C'"], "rt": s["R'"]}]))
    assert_equivalent(
        got,
        """SELECT (SELECT COUNT(*) FROM n WHERE id IN (SELECT id FROM g)) AS V_T,
                  (SELECT COUNT(*) FROM n) AS nodes,
                  (SELECT COUNT(DISTINCT ntype) FROM n) AS ct,
                  (SELECT COUNT(DISTINCT p) FROM t) AS rt""",
        n=mag_d1h1.nodes,
        t=mag_d1h1.triples,
        g=mag_pv_targets,
    )


def test_sufficiency_pct_consistent(mag_d1h1, mag_pv_targets):
    s = sufficiency_stats(mag_d1h1, mag_pv_targets)
    assert s["V_T_pct"] == pytest.approx(100 * s["V_T"] / s["nodes"])
    assert 0 < s["V_T_pct"] <= 100


def test_sufficiency_degenerate_targets(line_kg, t_of):
    """Only KG′ vertices count as targets, each once."""
    assert sufficiency_stats(line_kg, t_of([0, 0, 1]))["V_T"] == 2
    for ids in ([], [99]):
        s = sufficiency_stats(line_kg, t_of(ids))
        assert (s["V_T"], s["V_T_pct"], s["nodes"]) == (0, 0.0, 7)


@pytest.mark.parametrize("sample", ["mag_d1h1", "mag_urw"])
def test_entropy_against_oracle(spark, request, sample):
    kg = request.getfixturevalue(sample)
    got = spark.createDataFrame(pd.DataFrame({"h": [neighbour_type_entropy(kg)]}))
    assert_equivalent(
        got,
        """WITH e AS (SELECT s AS src, o AS dst FROM t UNION SELECT o, s FROM t),
           per AS (SELECT e.src, COUNT(DISTINCT n.ntype) AS c
                   FROM e JOIN n ON n.id = e.dst GROUP BY e.src),
           cnt AS (SELECT COALESCE(per.c, 0) AS c, COUNT(*) AS k
                   FROM n LEFT JOIN per ON per.src = n.id GROUP BY 1),
           p AS (SELECT k / SUM(k) OVER () AS q FROM cnt)
           SELECT -SUM(q * LOG2(q)) AS h FROM p""",
        n=kg.nodes,
        t=kg.triples,
    )


@pytest.mark.parametrize("sample", ["mag_d1h1", "mag_urw"])
def test_disconnected_pct_against_oracle(spark, request, mag_pv_targets, sample):
    kg = request.getfixturevalue(sample)
    pct = target_disconnected_pct(kg, mag_pv_targets)
    assert (pct > 0) == (sample == "mag_urw")
    assert_equivalent(
        spark.createDataFrame(pd.DataFrame({"pct": [pct]})),
        """WITH RECURSIVE e AS (SELECT s AS src, o AS dst FROM t UNION SELECT o, s FROM t),
           r(id, d) AS (SELECT id, 0 FROM n WHERE id IN (SELECT id FROM g)
                        UNION SELECT e.dst, r.d + 1 FROM r JOIN e ON e.src = r.id
                        WHERE r.d < 20)
           SELECT 100 * COUNT(*) FILTER (WHERE id NOT IN (SELECT id FROM r))
                  / COUNT(*) AS pct
           FROM n WHERE id NOT IN (SELECT id FROM g)""",
        n=kg.nodes,
        t=kg.triples,
        g=mag_pv_targets,
    )


def _reference(types: dict, triples: list, targets: list, *, n_sources: int, max_hops=20, seed=0):
    """The four indicators from their definitions, in plain Python."""
    ids, t_set = list(types), set(targets)
    adj = {v: set() for v in ids}
    for s, _, o in triples:
        adj[s].add(o)
        adj[o].add(s)

    def dist(sources):
        d, frontier = {v: 0 for v in sources}, list(sources)
        for hop in range(1, max_hops + 1):
            frontier = list(dict.fromkeys(u for v in frontier for u in adj[v] if u not in d))
            d.update((u, hop) for u in frontier)
        return d

    n_t = sum(v in t_set for v in ids)
    non = [v for v in ids if v not in t_set]
    reached = dist([v for v in ids if v in t_set])
    t_pos = [i for i, v in enumerate(ids) if v in t_set]
    found = []
    if t_pos and non:
        for i in np.random.default_rng(seed).choice(t_pos, min(n_sources, len(t_pos)), replace=False):
            d = dist([ids[i]])
            found += [d[v] for v in non if v in d]
    counts = Counter(len({types[u] for u in adj[v]}) for v in ids)
    return {
        "suff": {"V_T": n_t, "V_T_pct": 100.0 * n_t / max(1, len(ids)),
                 "C'": len(set(types.values())), "R'": len({p for _, p, _ in triples}), "nodes": len(ids)},
        "discon": 100.0 * sum(v not in reached for v in non) / len(non) if non else 0.0,
        "avg": sum(found) / len(found) if found else float("nan"),
        "entropy": -sum(k / len(ids) * math.log2(k / len(ids)) for k in counts.values()),
    }


@st.composite
def small_kgs(draw):
    """Up to 30 vertices of 3 types, up to 40 triples over 2 relations
    (multi-edges and self-loops allowed, so some vertices stay isolated),
    and target ids that may repeat or lie outside the graph."""
    def sized(elements, most, **kw):
        # a size uniform in [0, most]; hypothesis's own list sizes lean small
        n = draw(st.integers(0, most))
        return draw(st.lists(elements, min_size=n, max_size=n, **kw))

    ids = sized(st.integers(0, 99), 30, unique=True)
    types = {v: draw(st.sampled_from("ABC")) for v in ids}
    if not ids:
        return types, [], []
    triples = sized(st.tuples(st.sampled_from(ids), st.sampled_from("pq"), st.sampled_from(ids)), 40)
    targets = sized(st.sampled_from(ids) | st.integers(100, 102), 12)
    return types, triples, targets


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(small_kgs())
def test_indicators_match_definitions(spark, t_of, case):
    types, triples, targets = case
    kg, t = _kg(spark, "prop", types, triples), t_of(targets)
    ref = _reference(types, triples, targets, n_sources=3)  # fewer than most target sets: the draw matters
    assert sufficiency_stats(kg, t) == pytest.approx(ref["suff"])
    assert target_disconnected_pct(kg, t) == pytest.approx(ref["discon"])
    assert avg_distance_to_targets(kg, t, n_sources=3) == pytest.approx(ref["avg"], nan_ok=True)
    assert neighbour_type_entropy(kg) == pytest.approx(ref["entropy"], abs=1e-12)
