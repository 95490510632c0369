"""Triples→adjacency transformation (the paper's Fig. 4 'Transformation'
step): index bijections, reverse relations, Eq. 1 normalization, split
masks, and LP leakage removal; the relation-sorted edge table and the LP
triple codes against a per-relation reference on random KGs."""
from collections import Counter

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from pyspark.sql import functions as F

from repro.gnn.encoding import encode_lp, encode_nc
from repro.kg.schema import make_kg
from repro.kg.stats import kg_stats
from repro.metrics.sufficiency import sufficiency_stats
from repro.metrics.topology import avg_distance_to_targets, neighbour_type_entropy, target_disconnected_pct
from repro.tasks.defs import TASKS
from repro.tasks.splits import lp_frame, nc_frame
from tests.strategies import case_kg, kgs_and_vertex_sets


@pytest.fixture(scope="module")
def enc_mag(mag_bundle):
    task = TASKS["PV/MAG-42M"]
    frame = nc_frame(mag_bundle, task)
    return encode_nc(mag_bundle.kg, frame, n_classes=task.n_classes), frame


def test_node_index_bijection(mag_bundle, enc_mag):
    enc, _ = enc_mag
    assert len(enc.node_ids) == kg_stats(mag_bundle.kg)["nodes"]
    assert len(set(enc.node_ids)) == len(enc.node_ids)


def test_reverse_relations_added(mag_bundle, enc_mag):
    enc, _ = enc_mag
    base = mag_bundle.kg.local(keep=False).rel_names
    assert enc.n_rels == 2 * kg_stats(mag_bundle.kg)["e_type"] == 2 * len(base)
    assert all(f"{p}_rev" in enc.rel_names for p in base)


def test_edge_count_doubled_by_reverse(mag_bundle, enc_mag):
    enc, _ = enc_mag
    assert enc.n_edges == 2 * kg_stats(mag_bundle.kg)["edges"]


def test_reverse_edges_are_transposed(enc_mag):
    enc, _ = enc_mag
    src, dst, rel, _ = enc.edges
    for c in range(0, enc.n_rels, 2):
        assert enc.rel_names[c + 1] == f"{enc.rel_names[c]}_rev"
        fwd, rev = rel == c, rel == c + 1
        assert np.array_equal(src[rev], dst[fwd])
        assert np.array_equal(dst[rev], src[fwd])


def test_norm_is_inverse_indegree(enc_mag):
    enc, _ = enc_mag
    _, dst, rel, norm = enc.edges
    # per relation and destination, norms must sum to 1 (Eq. 1 with c_{i,r} = |N_i^r|)
    sums = pd.Series(norm).groupby([rel, dst]).sum()
    np.testing.assert_allclose(sums.to_numpy(), 1.0)


def test_labels_and_masks_assigned(enc_mag):
    enc, frame = enc_mag
    pdf = frame.toPandas()
    labelled = int((enc.labels >= 0).sum())
    assert labelled == len(pdf)
    for s in ("train", "valid", "test"):
        assert enc.masks[s].sum() == (pdf.split == s).sum()
    # masks disjoint
    assert (enc.masks["train"] & enc.masks["test"]).sum() == 0


def test_labelled_nodes_missing_from_graph_dropped(spark, mag_bundle):
    task = TASKS["PV/MAG-42M"]
    frame = nc_frame(mag_bundle, task)
    ghost = spark.createDataFrame(
        pd.DataFrame({"id": [10**9], "label": [0], "year": pd.array([2000], dtype="Int64"), "split": ["train"]})
    )
    enc = encode_nc(mag_bundle.kg, frame.unionByName(ghost), n_classes=task.n_classes)
    assert (enc.labels >= 0).sum() == frame.count()


def test_csr_symmetric_degree(enc_mag):
    enc, _ = enc_mag
    indptr, nbrs = enc.csr()
    assert indptr[-1] == 2 * enc.n_edges
    assert len(nbrs) == indptr[-1]
    src, dst, _, _ = enc.edges
    degree = np.bincount(src, minlength=enc.n_nodes) + np.bincount(dst, minlength=enc.n_nodes)
    assert np.array_equal(np.diff(indptr), degree)


def test_encode_lp_removes_heldout_task_edges(dblp_bundle):
    task = TASKS["AA/DBLP-15M"]
    frame = lp_frame(dblp_bundle, task)
    enc = encode_lp(dblp_bundle.kg, task.predicate, frame)
    n_task_total = dblp_bundle.kg.triples.where(F.col("p") == task.predicate).count()
    n_held = len(enc.splits["valid"]) + len(enc.splits["test"])
    n_task_in_graph = int((enc.triples[:, 1] == enc.task_rel).sum())
    assert n_task_in_graph == n_task_total - n_held
    # the task edges left in the graph are exactly the frame's train pairs
    rows = frame.select("s", "o", "split").collect()
    train_pairs = sorted((r.s, r.o) for r in rows if r.split == "train")
    task = enc.triples[enc.triples[:, 1] == enc.task_rel]
    kept = sorted(zip(enc.node_ids[task[:, 0]].tolist(), enc.node_ids[task[:, 2]].tolist()))
    assert kept == train_pairs


def test_encode_lp_candidates_are_object_typed(dblp_bundle):
    task = TASKS["AA/DBLP-15M"]
    frame = lp_frame(dblp_bundle, task)
    enc = encode_lp(dblp_bundle.kg, task.predicate, frame)
    ids = enc.node_ids[enc.candidates]
    types = dblp_bundle.kg.nodes.toPandas().set_index("id")["ntype"]
    assert set(types.loc[ids].unique()) <= {"Affiliation"}
    # every held-out answer must be rankable
    for s in ("valid", "test"):
        assert set(enc.splits[s][:, 2]) <= set(enc.candidates)


def test_encode_lp_split_sizes_match_frame(dblp_bundle):
    task = TASKS["AA/DBLP-15M"]
    frame = lp_frame(dblp_bundle, task)
    enc = encode_lp(dblp_bundle.kg, task.predicate, frame)
    counts = {r["split"]: r["count"] for r in frame.groupBy("split").count().collect()}
    for s in ("train", "valid", "test"):
        assert len(enc.splits[s]) == counts.get(s, 0)


def test_encode_lp_object_outside_the_graph_is_dropped(spark):
    """A task pair whose object is not a vertex of the graph is left out of
    the splits and of the candidate types alike."""
    kg = case_kg(spark, [(0, "A", None), (1, "B", None), (2, "B", None)], [(0, "p", 1), (0, "p", 2)])
    split = spark.createDataFrame([(0, 1, "train"), (0, 9, "test")], "s long, o long, split string")
    enc = encode_lp(kg, "p", split)
    assert enc.splits["train"].tolist() == [[0, 0, 1]]
    assert enc.splits["test"].shape == (0, 3)
    assert enc.candidates.tolist() == [1, 2]


def _no_labels(spark):
    return spark.createDataFrame([], "id long, label long, split string")


def _reference_edges(nodes, triples) -> list[tuple]:
    """The per-relation encoding, written out: for each predicate in sorted
    order, its triples in row order, then the same edges reversed, each
    edge's norm 1 / the in-degree of its ``dst`` under its relation."""
    pos = {v: i for i, (v, _, _) in enumerate(nodes)}
    rows = []
    for c, p in enumerate(sorted({p for _, p, _ in triples})):
        fwd = [(pos[s], pos[o]) for s, q, o in triples if q == p]
        for r, pairs in ((2 * c, fwd), (2 * c + 1, [(b, a) for a, b in fwd])):
            indeg = Counter(b for _, b in pairs)
            rows += [(a, b, r, 1.0 / indeg[b]) for a, b in pairs]
    return rows


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(case=kgs_and_vertex_sets())
@example(case=([(0, "A", None), (1, "B", 2000)], [], []))
def test_encoders_match_per_relation_reference(spark, case):
    """Self-loops, exact duplicate triples, an isolated vertex and zero
    triples: ``encode_nc``'s edge table equals the per-relation reference
    row for row, and ``encode_lp``'s ``(s, r, o)`` codes are the triples in
    row order, less the held-out task pair."""
    nodes, triples, _ = case
    kg = case_kg(spark, nodes, triples)
    names = sorted({p for _, p, _ in triples})

    enc = encode_nc(kg, _no_labels(spark), n_classes=2)
    assert enc.node_ids.tolist() == [v for v, _, _ in nodes]
    assert enc.rel_names == [n for p in names for n in (p, f"{p}_rev")]
    assert list(zip(*(a.tolist() for a in enc.edges))) == _reference_edges(nodes, triples)
    assert enc.n_edges == 2 * len(triples)

    if not triples:
        return
    s, task, o = triples[0]
    held = spark.createDataFrame([(s, o, "test")], "s long, o long, split string")
    lp = encode_lp(kg, task, held)
    pos = {v: i for i, (v, _, _) in enumerate(nodes)}
    want = [[pos[a], names.index(p), pos[b]] for a, p, b in triples if (a, p, b) != (s, task, o)]
    assert lp.rel_names == names and lp.task_rel == names.index(task)
    assert lp.triples.tolist() == want
    assert lp.splits["test"].tolist() == [[pos[s], names.index(task), pos[o]]]


def test_triple_endpoint_outside_the_vertices_raises(spark):
    """Definition 2.1: every driver-side reader of a KG rejects a triple
    whose endpoint is not one of its vertices."""
    kg = case_kg(spark, [(0, "A", None), (1, "B", None)], [(0, "p", 1), (0, "p", 7)])
    targets = spark.createDataFrame([(0,)], "id long")
    readers = [
        lambda: encode_nc(kg, _no_labels(spark), n_classes=2),
        lambda: encode_lp(kg, "p", spark.createDataFrame([], "s long, o long, split string")),
        lambda: sufficiency_stats(kg, targets),
        lambda: target_disconnected_pct(kg, targets),
        lambda: avg_distance_to_targets(kg, targets),
        lambda: neighbour_type_entropy(kg),
    ]
    for read in readers:
        with pytest.raises(KeyError, match=r"\[7\]"):
            read()
