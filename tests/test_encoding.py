"""Triples→adjacency transformation (the paper's Fig. 4 'Transformation'
step): index bijections, reverse relations, Eq. 1 normalization, split
masks, and LP leakage removal."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.gnn.encoding import encode_lp, encode_nc
from repro.kg.schema import make_kg
from repro.tasks.defs import TASKS
from repro.tasks.splits import lp_frame, nc_frame


@pytest.fixture(scope="module")
def enc_mag(mag_bundle):
    task = TASKS["PV/MAG-42M"]
    frame = nc_frame(mag_bundle, task)
    return encode_nc(mag_bundle.kg, frame, n_classes=task.n_classes), frame


def test_node_index_bijection(mag_bundle, enc_mag):
    enc, _ = enc_mag
    assert len(enc.node_ids) == mag_bundle.kg.n_nodes()
    assert len(set(enc.node_ids)) == len(enc.node_ids)


def test_reverse_relations_added(mag_bundle, enc_mag):
    enc, _ = enc_mag
    base = mag_bundle.kg.edge_types()
    assert enc.n_rels == 2 * len(base)
    assert all(f"{p}_rev" in enc.rel_names for p in base)


def test_edge_count_doubled_by_reverse(mag_bundle, enc_mag):
    enc, _ = enc_mag
    assert enc.n_edges == 2 * mag_bundle.kg.n_edges()


def test_reverse_edges_are_transposed(enc_mag):
    enc, _ = enc_mag
    for p, e in zip(enc.rel_names, enc.edges):
        if p.endswith("_rev"):
            fwd = enc.edges[enc.rel_names.index(p[: -len("_rev")])]
            assert np.array_equal(np.sort(e.src), np.sort(fwd.dst))
            assert np.array_equal(np.sort(e.dst), np.sort(fwd.src))


def test_norm_is_inverse_indegree(enc_mag):
    enc, _ = enc_mag
    e = enc.edges[0]
    # per destination, norms must sum to 1 (Eq. 1 with c_{i,r} = |N_i^r|)
    sums = pd.Series(e.norm).groupby(pd.Series(e.dst)).sum()
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
