"""End-to-end reproduction of the paper's qualitative claims at unit-test
scale: extraction quality, model-size reduction, accuracy ordering, and a
full LP pipeline run."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.brw import brw_sample
from repro.core.pattern import TOSGPattern
from repro.core.sparql_extract import extract_tosg
from repro.core.subgraph import materialize
from repro.gnn.encoding import encode_lp, encode_nc
from repro.gnn.lp import train_transe
from repro.gnn.saint import train_saint
from repro.kg.partition import build_index
from repro.kg.stats import kg_stats
from repro.metrics.sufficiency import sufficiency_stats
from repro.metrics.topology import target_disconnected_pct
from repro.tasks.defs import TASKS, target_vertices
from repro.tasks.splits import lp_frame, nc_frame


def test_d1h1_improves_target_ratio_over_urw(mag_bundle, mag_pv_targets, mag_d1h1):
    urw = materialize(brw_sample(mag_bundle.kg, mag_bundle.kg.nodes, bs=60, h=3, seed=2))
    r_urw = sufficiency_stats(urw, mag_pv_targets)["V_T_pct"]
    r_tosa = sufficiency_stats(mag_d1h1, mag_pv_targets)["V_T_pct"]
    assert r_tosa > r_urw
    urw.unpersist()


def test_d1h1_zero_disconnected_urw_not(mag_pv_targets, mag_d1h1, mag_urw):
    assert target_disconnected_pct(mag_d1h1, mag_pv_targets) == 0.0
    assert target_disconnected_pct(mag_urw, mag_pv_targets) > 0.0


def test_kgp_contains_every_target(mag_pv_targets, mag_d1h1):
    """d1h1 keeps all target vertices (every paper has outgoing edges)."""
    missing = mag_pv_targets.join(mag_d1h1.nodes, "id", "anti").count()
    assert missing == 0


def test_model_size_reduction(mag_bundle, mag_d1h1):
    task = TASKS["PV/MAG-42M"]
    frame = nc_frame(mag_bundle, task)
    enc_fg = encode_nc(mag_bundle.kg, frame, n_classes=task.n_classes)
    enc_kgp = encode_nc(mag_d1h1, frame, n_classes=task.n_classes)
    from repro.gnn.rgcn import RGCN

    p_fg = RGCN(enc_fg, dim=32).n_params
    p_kgp = RGCN(enc_kgp, dim=32).n_params
    assert p_kgp < 0.5 * p_fg  # Table IV: up to 34x smaller; >2x here


def test_accuracy_ordering_kgp_vs_fg_urw(mag_bundle, mag_d1h1):
    """The paper's Fig. 6 / Table IV claim: SAINT on KG' beats SAINT+URW on
    FG at an equal epoch budget."""
    task = TASKS["PV/MAG-42M"]
    frame = nc_frame(mag_bundle, task)
    enc_fg = encode_nc(mag_bundle.kg, frame, n_classes=task.n_classes)
    enc_kgp = encode_nc(mag_d1h1, frame, n_classes=task.n_classes)
    tp = dict(epochs=40, roots_per_epoch=80, walk_h=2, dim=32, lr=2e-2)

    def mean_heldout(enc):  # valid+test mean over 3 seeds: the held-out
        accs = []           # splits are small at sf=0.1, so average
        for seed in range(3):
            a = train_saint(enc, sampler="urw", seed=seed, **tp)["accuracy"]
            accs += [a["valid"], a["test"]]
        return np.mean(accs)

    assert mean_heldout(enc_kgp) > mean_heldout(enc_fg)


def test_full_batch_rgcn_on_kgp_beats_chance(mag_bundle, mag_d1h1):
    task = TASKS["PV/MAG-42M"]
    frame = nc_frame(mag_bundle, task)
    enc = encode_nc(mag_d1h1, frame, n_classes=task.n_classes)
    r = train_saint(
        enc, sampler="urw", roots_per_epoch=enc.n_nodes, walk_h=0, epochs=60, dim=32, lr=2e-2
    )
    assert r["accuracy"]["test"] > 2.0 / task.n_classes


def test_lp_pipeline_end_to_end(yago3_bundle):
    """CA/YAGO3-10 with KG-TOSA_d2h1: extraction keeps all task triples and
    TransE trains to a finite Hits@10 on both FG and KG'."""
    task = TASKS["CA/YAGO3-10"]
    frame = lp_frame(yago3_bundle, task)
    idx = build_index(yago3_bundle.kg)
    targets = target_vertices(yago3_bundle.kg, task)
    kgp = materialize(
        extract_tosg(idx, targets, TOSGPattern(2, 1), lp_predicate=task.predicate)
    )
    n_task = yago3_bundle.kg.triples.where(F.col("p") == task.predicate).count()
    assert kgp.triples.where(F.col("p") == task.predicate).count() == n_task

    hits = {}
    for name, g in (("fg", yago3_bundle.kg), ("kgp", kgp)):
        enc = encode_lp(g, task.predicate, frame)
        r = train_transe(enc, dim=24, epochs=20, seed=0)
        hits[name] = r["hits@10"]["valid"]
    assert all(0.0 <= h <= 1.0 for h in hits.values())
    assert hits["kgp"] > 0.0
    kgp.unpersist()
    idx.unpersist()


def test_lp_kgp_smaller_than_fg(wikikg2_bundle):
    task = TASKS["PO/ogbl-wikikg2"]
    idx = build_index(wikikg2_bundle.kg)
    targets = target_vertices(wikikg2_bundle.kg, task)
    kgp = materialize(
        extract_tosg(idx, targets, TOSGPattern(2, 1), lp_predicate=task.predicate)
    )
    sub, full = kg_stats(kgp), kg_stats(wikikg2_bundle.kg)
    assert sub["nodes"] < full["nodes"]
    assert sub["edges"] < full["edges"]
    kgp.unpersist()
    idx.unpersist()


def test_d2h1_extends_d1h1_with_incoming_context(mag_index, mag_pv_targets, mag_d1h1):
    kgp2 = extract_tosg(mag_index, mag_pv_targets, TOSGPattern(2, 1))
    assert kgp2.triples.count() > mag_d1h1.triples.count()
    # incoming-only relations (author reviews paper) appear only under d=2
    preds2 = {r["p"] for r in kgp2.triples.select("p").distinct().collect()}
    preds1 = {r["p"] for r in mag_d1h1.triples.select("p").distinct().collect()}
    assert "reviews" in preds2 and "reviews" not in preds1


def test_metapath_preservation(mag_d1h1):
    """§IV-C: merging per-target stars preserves longer metapaths — the
    Paper-cites-Paper-hasTopic-Topic chain must exist inside KG'."""
    t = mag_d1h1.triples
    cites = t.where(F.col("p") == "cites").select(F.col("s").alias("a"), F.col("o").alias("b"))
    topics = t.where(F.col("p") == "hasTopic").select(F.col("s").alias("b"), F.col("o").alias("c"))
    chains = cites.join(topics, "b").count()
    assert chains > 0
