"""GraphSAINT-style mini-batch trainer: sampler invariants and training
behaviour on the generated MAG graph."""
import numpy as np
import pandas as pd
import pytest

from repro.gnn.encoding import encode_nc
from repro.gnn.saint import _induced_edges, _walk_sample, train_saint
from repro.tasks.defs import TASKS
from repro.tasks.splits import nc_frame
from tests.strategies import case_kg


@pytest.fixture(scope="module")
def enc(mag_bundle):
    task = TASKS["PV/MAG-42M"]
    return encode_nc(mag_bundle.kg, nc_frame(mag_bundle, task), n_classes=task.n_classes)


def test_walk_sample_contains_roots(enc):
    rng = np.random.default_rng(0)
    roots = rng.choice(enc.n_nodes, 20, replace=False)
    nodes = _walk_sample(enc, roots, 2, rng)
    assert set(roots) <= set(nodes)


def test_walk_sample_bounded(enc):
    rng = np.random.default_rng(1)
    roots = rng.choice(enc.n_nodes, 30, replace=False)
    nodes = _walk_sample(enc, roots, 3, rng)
    assert len(nodes) <= 30 * 4


def test_induced_edges_closed_over_nodes(enc):
    rng = np.random.default_rng(2)
    nodes = _walk_sample(enc, rng.choice(enc.n_nodes, 50, replace=False), 2, rng)
    mask = np.zeros(enc.n_nodes, bool)
    mask[nodes] = True
    e = _induced_edges(enc, nodes)
    assert mask[e.src].all() and mask[e.dst].all()


def test_induced_edges_subset_of_graph(enc):
    rng = np.random.default_rng(3)
    nodes = _walk_sample(enc, rng.choice(enc.n_nodes, 50, replace=False), 2, rng)
    sub = _induced_edges(enc, nodes)
    assert (np.diff(sub.rel) >= 0).all()  # still one run of rows per relation
    per_rel = lambda e: np.bincount(e.rel, minlength=enc.n_rels)  # noqa: E731
    assert (per_rel(sub) <= per_rel(enc.edges)).all()


def test_unknown_sampler_rejected(enc):
    with pytest.raises(ValueError):
        train_saint(enc, sampler="bogus", epochs=1)


def test_training_improves_over_untrained(enc):
    r = train_saint(enc, sampler="brw", epochs=40, roots_per_epoch=100, dim=16, seed=0)
    assert r["accuracy"]["test"] > 2.0 / enc.n_classes  # well above chance


def test_brw_batches_have_more_supervision_than_urw(enc):
    """Per-epoch losses are finite only when targets land in the batch;
    BRW roots at training targets so every batch is supervised."""
    r_brw = train_saint(enc, sampler="brw", epochs=15, roots_per_epoch=40, dim=8, seed=1)
    n_sup_brw = sum(1 for x in r_brw["loss_history"] if not np.isnan(x))
    assert n_sup_brw == 15


def test_deterministic_in_seed(enc):
    a = train_saint(enc, sampler="brw", epochs=8, roots_per_epoch=30, dim=8, seed=9)
    b = train_saint(enc, sampler="brw", epochs=8, roots_per_epoch=30, dim=8, seed=9)
    assert a["loss_history"] == b["loss_history"]


@pytest.mark.parametrize("sampler", ["urw", "brw"])
def test_edgeless_graph_trains_on_the_self_term(spark, sampler):
    """A graph with vertices but no triples: no walk leaves its root and only
    the self term ``H @ Wself`` acts, so every epoch with a training vertex
    takes a finite step and the accuracy is defined."""
    kg = case_kg(spark, [(v, "AB"[v % 2], None) for v in range(8)], [])
    labelled = spark.createDataFrame(
        pd.DataFrame({"id": [0, 2, 4, 6], "label": [0, 1, 0, 1], "split": ["train", "train", "train", "test"]})
    )
    enc = encode_nc(kg, labelled, n_classes=2)
    assert enc.n_edges == 0 and enc.n_rels == 0
    r = train_saint(enc, sampler=sampler, epochs=5, roots_per_epoch=enc.n_nodes, dim=4, seed=0)
    assert len(r["loss_history"]) == 5 and np.isfinite(r["loss_history"]).all()
    assert 0.0 <= r["accuracy"]["train"] <= 1.0 and 0.0 <= r["accuracy"]["test"] <= 1.0
