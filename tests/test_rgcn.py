"""RGCN (Eq. 1): exact-gradient verification against numerical
differentiation, parameter accounting, frozen target embeddings,
full-batch training as ``train_saint`` with every vertex a root, and
learnability on a toy relational task."""
import warnings

import numpy as np
import pytest

from repro.gnn.encoding import EdgeTable, EncodedGraph
from repro.gnn.rgcn import RGCN, _agg
from repro.gnn.saint import train_saint


def _toy_graph(n=12, n_classes=3, seed=0) -> EncodedGraph:
    """Targets 0..5 each point to a class vertex via relation 'sig'; class
    vertex identity determines the label. Relation 'noise' adds clutter."""
    rng = np.random.default_rng(seed)
    labels = np.full(n, -1)
    sig_src, sig_dst = [], []
    for i in range(6):
        c = i % n_classes
        labels[i] = c
        sig_src.append(i)
        sig_dst.append(6 + c)  # class vertices 6,7,8
    noise_src = rng.integers(0, n, 10)
    noise_dst = rng.integers(0, n, 10)

    def norm(dst):
        _, inv, cnt = np.unique(dst, return_inverse=True, return_counts=True)
        return 1.0 / cnt[inv]

    sig_src, sig_dst = np.array(sig_src), np.array(sig_dst)
    edges = EdgeTable(  # relations sig, sig_rev (class → target), noise
        src=np.concatenate([sig_src, sig_dst, noise_src]),
        dst=np.concatenate([sig_dst, sig_src, noise_dst]),
        rel=np.repeat([0, 1, 2], [len(sig_src), len(sig_dst), len(noise_src)]),
        norm=np.concatenate([norm(sig_dst), norm(sig_src), norm(noise_dst)]),
    )
    masks = {
        "train": np.zeros(n, bool),
        "valid": np.zeros(n, bool),
        "test": np.zeros(n, bool),
    }
    masks["train"][:4] = True
    masks["test"][4:6] = True
    return EncodedGraph(
        node_ids=np.arange(n),
        rel_names=["sig", "sig_rev", "noise"],
        edges=edges,
        labels=labels,
        masks=masks,
        n_classes=n_classes,
    )


def _full_batch(enc: EncodedGraph, **kw) -> dict:
    """The paper's full-batch "RGCN": SAINT with every vertex a root."""
    return train_saint(enc, sampler="urw", roots_per_epoch=enc.n_nodes, walk_h=0, **kw)


def test_numerical_gradient_check():
    """Every analytic gradient entry must match central differences."""
    enc = _toy_graph()
    model = RGCN(enc, dim=4, seed=1)
    idx = np.flatnonzero(enc.masks["train"])
    _, grads = model.loss_and_grads(idx)
    eps = 1e-6
    rng = np.random.default_rng(0)
    for key in ("E", "W1s", "W1r", "W2s", "W2r"):
        flat = model.params[key].reshape(-1)
        gflat = grads[key].reshape(-1)
        for pos in rng.choice(len(flat), size=min(12, len(flat)), replace=False):
            if key == "E" and enc.target_mask.reshape(-1)[pos // model.dim]:
                continue  # frozen rows carry zero gradient by design
            orig = flat[pos]
            flat[pos] = orig + eps
            lp, _ = model.loss_and_grads(idx)
            flat[pos] = orig - eps
            lm, _ = model.loss_and_grads(idx)
            flat[pos] = orig
            num = (lp - lm) / (2 * eps)
            assert num == pytest.approx(gflat[pos], rel=1e-3, abs=1e-6), key


def test_agg_matches_dense_reference():
    enc = _toy_graph()
    d = 4
    rng = np.random.default_rng(2)
    H = rng.normal(size=(enc.n_nodes, d))
    Wself = rng.normal(size=(d, d))
    Wrel = rng.normal(size=(enc.n_rels, d, d))
    got = _agg(H, Wself, Wrel, enc.edges)
    ref = H @ Wself
    for s, t, r, w in zip(*enc.edges):
        ref[t] += w * (H[s] @ Wrel[r])
    np.testing.assert_allclose(got, ref, rtol=1e-10)


def test_param_count_formula():
    enc = _toy_graph()
    model = RGCN(enc, dim=8)
    n, r, c, d = enc.n_nodes, enc.n_rels, enc.n_classes, 8
    assert model.n_params == n * d + d * d + r * d * d + d * c + r * d * c


def test_target_embeddings_frozen_at_zero():
    enc = _toy_graph()
    model = RGCN(enc, dim=4, seed=3)
    assert (model.params["E"][enc.target_mask] == 0).all()
    idx = np.flatnonzero(enc.masks["train"])
    for _ in range(5):
        _, grads = model.loss_and_grads(idx)
        model.adam_step(grads)
    assert (model.params["E"][enc.target_mask] == 0).all()
    assert (model.params["E"][~enc.target_mask] != 0).any()


def test_training_reduces_loss():
    enc = _toy_graph()
    result = _full_batch(enc, epochs=50, dim=8, lr=0.05, seed=0)
    assert result["loss_history"][-1] < result["loss_history"][0]


def test_learns_toy_relational_task():
    """Labels are determined by the class vertex one hop away — a correct
    RGCN must reach 100% train and test accuracy."""
    enc = _toy_graph()
    result = _full_batch(enc, epochs=120, dim=8, lr=0.05, seed=0)
    assert result["accuracy"]["train"] == 1.0
    assert result["accuracy"]["test"] == 1.0


def test_accuracy_nan_for_empty_split():
    enc = _toy_graph()
    enc.masks["valid"][:] = False
    model = RGCN(enc, dim=4)
    assert np.isnan(model.accuracy("valid"))


def test_forward_shape():
    enc = _toy_graph()
    model = RGCN(enc, dim=4)
    assert model.forward().shape == (enc.n_nodes, enc.n_classes)


def test_deterministic_in_seed():
    enc = _toy_graph()
    a = _full_batch(enc, epochs=10, dim=4, seed=5)["loss_history"]
    b = _full_batch(enc, epochs=10, dim=4, seed=5)["loss_history"]
    assert a == b


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("epochs, dim, lr", [(50, 8, 0.05), (10, 4, 1e-2)])
def test_full_batch_saint_equals_plain_full_batch_loop(seed, epochs, dim, lr):
    """Every vertex a root and no walk steps: each SAINT step sees the whole
    graph and every training vertex, so it is full-batch training, bit for
    bit (the sampler's draws never reach the model's initialisation)."""
    enc = _toy_graph()
    model = RGCN(enc, dim=dim, seed=seed)
    train_idx = np.flatnonzero(enc.masks["train"])
    history = []
    for _ in range(epochs):
        loss, grads = model.loss_and_grads(train_idx)
        model.adam_step(grads, lr=lr)
        history.append(loss)

    result = _full_batch(enc, epochs=epochs, dim=dim, lr=lr, seed=seed)
    assert result["loss_history"] == history
    for k, v in model.params.items():
        np.testing.assert_array_equal(result["model"].params[k], v)


@pytest.mark.parametrize("sampler", ["urw", "brw"])
def test_no_training_vertex_in_sample_leaves_model_untrained(sampler):
    """An epoch whose sample holds no training vertex takes no step and
    records a NaN loss; with none at all the model stays at its
    initialisation, and the train split's accuracy is NaN."""
    enc = _toy_graph()
    enc.masks["train"][:] = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = train_saint(enc, sampler=sampler, epochs=5, roots_per_epoch=4, dim=4, seed=0)
    assert len(result["loss_history"]) == 5
    assert all(np.isnan(x) for x in result["loss_history"])
    fresh = RGCN(enc, dim=4, seed=0)
    for k, v in fresh.params.items():
        np.testing.assert_array_equal(result["model"].params[k], v)
    assert np.isnan(result["accuracy"]["train"])
    assert result["accuracy"]["test"] == fresh.accuracy("test")
