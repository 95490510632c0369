"""Harnesses reproducing every table of the paper's evaluation section.

Each ``tableN`` function runs the full experiment and returns a pandas
DataFrame whose rows mirror the paper's table, with the paper's published
numbers alongside our measured ones (columns prefixed ``paper_``), so
EXPERIMENTS.md can be regenerated by diffing the two.

Scale: our graphs are ≈1/1000 of the paper's (DESIGN.md §4.1), so
absolute counts/times/memory shrink accordingly; the reproduced quantity
is the *shape* — orderings, ratios and crossovers.
"""
from __future__ import annotations

import itertools

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.bench.measure import measured, timed
from repro.core.brw import brw_sample
from repro.core.ibs import ibs_sample
from repro.core.pattern import TOSGPattern
from repro.core.sparql_extract import extract_tosg
from repro.core.subgraph import materialize
from repro.gnn.encoding import encode_nc
from repro.gnn.saint import train_saint
from repro.kg import generator
from repro.kg.partition import build_index
from repro.kg.stats import kg_stats
from repro.metrics.sufficiency import sufficiency_stats
from repro.metrics.topology import (
    avg_distance_to_targets,
    neighbour_type_entropy,
    target_disconnected_pct,
)
from repro.tasks.defs import NC_TASKS, TASKS, target_vertices
from repro.tasks.splits import lp_frame, nc_frame, split_fractions

# ---------------------------------------------------------------------------
# Paper-published numbers (for side-by-side comparison)
# ---------------------------------------------------------------------------

PAPER_TABLE1 = {
    "MAG-42M": dict(nodes=42_400_000, edges=166_000_000, n_type=58, e_type=62),
    "YAGO-30M": dict(nodes=30_700_000, edges=400_000_000, n_type=104, e_type=98),
    "DBLP-15M": dict(nodes=15_600_000, edges=252_000_000, n_type=42, e_type=48),
    "ogbl-wikikg2": dict(nodes=2_500_000, edges=17_000_000, n_type=9_300, e_type=535),
    "YAGO3-10": dict(nodes=123_000, edges=1_100_000, n_type=23, e_type=37),
}

PAPER_TABLE2 = {  # task key -> paper split ratio string
    "PV/MAG-42M": "84/9/7",
    "PD/MAG-42M": "87/8/5",
    "PC/YAGO-30M": "80/10/10",
    "CG/YAGO-30M": "80/10/10",
    "PV/DBLP-15M": "79/10/11",
    "AC/DBLP-15M": "80/10/10",
    "AA/DBLP-15M": "99/0.7/0.3",
    "PO/ogbl-wikikg2": "94/2.5/3.5",
    "CA/YAGO3-10": "99/0.5/0.5",
}

# Table III (paper): method -> task -> indicators
PAPER_TABLE3 = {
    "CG/YAGO-30M": {
        "V_T": dict(RW=55720, BRW=40936, IBS=78562, d1h1=50429),
        "V_T_pct": dict(RW=1.1, BRW=61.2, IBS=82.4, d1h1=35.7),
        "C'": dict(RW=69, BRW=36, IBS=33, d1h1=34),
        "R'": dict(RW=64, BRW=31, IBS=33, d1h1=33),
        "discon_pct": dict(RW=76.7, BRW=0, IBS=0, d1h1=0),
        "avg_dist": dict(RW=7.1, BRW=4.23, IBS=4.7, d1h1=4.18),
        "entropy": dict(RW=1.27, BRW=2.68, IBS=3.02, d1h1=2.34),
        "accuracy": dict(RW=15.25, BRW=36.73, IBS=42.0, d1h1=36.72),
    },
    "PC/YAGO-30M": {
        "V_T": dict(RW=55299, BRW=42016, IBS=79830, d1h1=50419),
        "V_T_pct": dict(RW=11.4, BRW=55.3, IBS=74.6, d1h1=35.0),
        "C'": dict(RW=85, BRW=27, IBS=41, d1h1=25),
        "R'": dict(RW=80, BRW=22, IBS=39, d1h1=24),
        "discon_pct": dict(RW=14.8, BRW=0, IBS=0, d1h1=0),
        "avg_dist": dict(RW=7.46, BRW=4.12, IBS=5.2, d1h1=4.62),
        "entropy": dict(RW=1.27, BRW=2.67, IBS=2.96, d1h1=2.40),
        "accuracy": dict(RW=79.28, BRW=96.1, IBS=97.2, d1h1=89.52),
    },
    "PV/DBLP-15M": {
        "V_T": dict(RW=40618, BRW=44886, IBS=128026, d1h1=51833),
        "V_T_pct": dict(RW=29.9, BRW=65.4, IBS=19.4, d1h1=40.2),
        "C'": dict(RW=34, BRW=33, IBS=32, d1h1=24),
        "R'": dict(RW=33, BRW=34, IBS=33, d1h1=25),
        "discon_pct": dict(RW=0, BRW=0, IBS=0, d1h1=0),
        "avg_dist": dict(RW=4.23, BRW=3.71, IBS=3.95, d1h1=3.1),
        "entropy": dict(RW=1.77, BRW=2.75, IBS=1.64, d1h1=2.18),
        "accuracy": dict(RW=81.79, BRW=80.53, IBS=85.4, d1h1=89.52),
    },
    "PV/MAG-42M": {
        "V_T": dict(RW=36149, BRW=44956, IBS=92103, d1h1=56744),
        "V_T_pct": dict(RW=4.9, BRW=78.0, IBS=26.5, d1h1=36.2),
        "C'": dict(RW=48, BRW=20, IBS=23, d1h1=26),
        "R'": dict(RW=34, BRW=22, IBS=29, d1h1=25),
        "discon_pct": dict(RW=89.3, BRW=0, IBS=0, d1h1=0),
        "avg_dist": dict(RW=3.1, BRW=2.9, IBS=3.2, d1h1=3.0),
        "entropy": dict(RW=1.49, BRW=4.44, IBS=2.36, d1h1=3.18),
        "accuracy": dict(RW=73.79, BRW=75.33, IBS=75.4, d1h1=81.08),
    },
}

# Table IV (paper): task key -> step -> (FG, KG')
PAPER_TABLE4 = {
    "PV/MAG-42M": dict(extract=(None, 18), transform=(46, 22), train=(274, 135), total=(320, 175), acc=(74, 81), params_m=(5349, 1415), infer_s=(89, 52), mem_gb=(155, 57)),
    "PD/MAG-42M": dict(extract=(None, 16), transform=(41, 19), train=(290, 129), total=(331, 164), acc=(67, 74), params_m=(5348, 1408), infer_s=(87, 52), mem_gb=(139, 57)),
    "PV/DBLP-15M": dict(extract=(None, 19), transform=(30, 11), train=(112, 85), total=(142, 115), acc=(82, 90), params_m=(3301, 1477), infer_s=(678, 454), mem_gb=(47, 36)),
    "AC/DBLP-15M": dict(extract=(None, 1), transform=(9, 1), train=(170, 13), total=(179, 15), acc=(81, 79), params_m=(3306, 96), infer_s=(1003, 28), mem_gb=(80, 3)),
    "PC/YAGO-30M": dict(extract=(None, 22), transform=(52, 10), train=(439, 105), total=(491, 137), acc=(79, 90), params_m=(3656, 1085), infer_s=(1265, 368), mem_gb=(130, 30)),
    "CG/YAGO-30M": dict(extract=(None, 3), transform=(60, 3), train=(292, 23), total=(352, 29), acc=(15, 37), params_m=(3933, 1038), infer_s=(1283, 32), mem_gb=(90, 3)),
}


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------

def _train_params(sf: float) -> dict:
    """SAINT training hyper-parameters scaled to the graph size."""
    return dict(
        epochs=60,
        roots_per_epoch=max(60, int(300 * sf)),
        walk_h=2,
        dim=32,
        lr=2e-2,
    )


def t3_params(sf: float) -> dict:
    """Table III extraction parameters (paper §V-C.1, scaled: the paper
    uses bs=20k initial vertices on 10⁷-node graphs; we use bs≈500·sf on
    10⁴-node graphs — same order of ratio). The PPR pruning threshold
    scales inversely with bs (per-seed mass is 1/bs; a fixed eps tuned for
    the paper's bs=20k would prune everything at ours)."""
    bs = max(60, int(500 * sf))
    return dict(bs=bs, walk_h=3, ibs_k=16, alpha=0.25, eps=0.01 / bs, iters=8)


N_ACC_SEEDS = 3  # accuracy columns are seed-averaged (small test splits)
SEED = 0  # the samplers' seed, and the first of the N_ACC_SEEDS training seeds


def _kg_groups(spark: SparkSession, keys, sf: float):
    """Yield ``(bundle, [(key, task), …])`` for each run of consecutive task
    keys on the same KG. The KG is generated at the start of its run and
    unpersisted before the next KG is generated, so Spark's cache holds one
    KG at a time; the tables list each KG's tasks together."""
    for kg_name, run in itertools.groupby(keys, key=lambda k: TASKS[k].kg_name):
        bundle = generator.generate(kg_name, spark, sf=sf)
        yield bundle, [(key, TASKS[key]) for key in run]
        bundle.unpersist()


def _seed_averaged_acc(enc, sampler: str, tp: dict) -> tuple[float, dict, float, float]:
    """SAINT test accuracy averaged over seeds ``SEED … SEED+N_ACC_SEEDS−1``
    (the paper also reports the average of three runs per method, §V-A.3).
    The first run is timed and tracemalloc-measured; its result, seconds
    and peak MB are returned alongside for Table IV's cost columns."""
    first, train_s, train_mb = measured(train_saint, enc, sampler=sampler, seed=SEED, **tp)
    accs = [first["accuracy"]["test"]] + [
        train_saint(enc, sampler=sampler, seed=SEED + s, **tp)["accuracy"]["test"]
        for s in range(1, N_ACC_SEEDS)
    ]
    return float(np.mean(accs)), first, train_s, train_mb


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------

def table1(spark: SparkSession, *, sf: float = 1.0) -> pd.DataFrame:
    """Benchmark statistics for the five generated KGs vs the paper's."""
    rows = []
    for name in generator.GENERATORS:
        bundle = generator.generate(name, spark, sf=sf)
        st = kg_stats(bundle.kg)
        p = PAPER_TABLE1[name]
        rows.append(
            {
                "kg": name,
                "nodes": st["nodes"],
                "edges": st["edges"],
                "n_type": st["n_type"],
                "e_type": st["e_type"],
                "paper_nodes": p["nodes"],
                "paper_edges": p["edges"],
                "paper_n_type": p["n_type"],
                "paper_e_type": p["e_type"],
            }
        )
        bundle.unpersist()
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------

def table2(spark: SparkSession, *, sf: float = 1.0) -> pd.DataFrame:
    """Task summary with *measured* split ratios from our splitters."""
    rows = []
    for bundle, tasks in _kg_groups(spark, TASKS, sf):
        for key, task in tasks:
            frame = nc_frame(bundle, task) if task.tt == "NC" else lp_frame(bundle, task)
            frac = split_fractions(frame)
            rows.append(
                {
                    "TT": task.tt,
                    "Name": task.name,
                    "KG": task.kg_name,
                    "Split": task.split.capitalize(),
                    "Ratio": "/".join(f"{100 * frac[s]:.1f}" for s in ("train", "valid", "test")),
                    "Metric": task.metric,
                    "paper_Ratio": PAPER_TABLE2[key],
                }
            )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table III
# ---------------------------------------------------------------------------

T3_TASKS = ["CG/YAGO-30M", "PC/YAGO-30M", "PV/DBLP-15M", "PV/MAG-42M"]


def _quality(kgp, targets) -> dict:
    suff = sufficiency_stats(kgp, targets)
    return {
        **suff,
        "discon_pct": target_disconnected_pct(kgp, targets),
        "avg_dist": avg_distance_to_targets(kgp, targets),
        "entropy": neighbour_type_entropy(kgp),
    }


def table3(spark: SparkSession, *, sf: float = 1.0, with_accuracy: bool = True) -> pd.DataFrame:
    """Extraction-quality comparison: URW vs BRW vs IBS vs KG-TOSA_d1h1.

    For each of the paper's four tasks, runs all four extractors, computes
    the six quality indicators on each extracted subgraph, and (optionally)
    trains SAINT-RGCN for the accuracy row using the method↔trainer mapping
    of DESIGN.md §3.
    """
    p = t3_params(sf)
    rows = []
    for bundle, tasks in _kg_groups(spark, T3_TASKS, sf):
        kg, index = bundle.kg, build_index(bundle.kg)
        for key, task in tasks:
            targets = target_vertices(kg, task).persist()

            extractors = {
                "RW": lambda: brw_sample(kg, kg.nodes, bs=p["bs"], h=p["walk_h"], seed=SEED),
                "BRW": lambda: brw_sample(kg, targets, bs=p["bs"], h=p["walk_h"], seed=SEED),
                "IBS": lambda: ibs_sample(
                    kg, targets, bs=p["bs"], k=p["ibs_k"], alpha=p["alpha"],
                    eps=p["eps"], iters=p["iters"], seed=SEED,
                ),
                "d1h1": lambda: extract_tosg(index, targets, TOSGPattern(1, 1)),
            }
            subgraphs, extract_s = {}, {}
            for m, fn in extractors.items():
                with timed(extract_s, m):
                    subgraphs[m] = materialize(fn())
            # scored before the encoders run, so IBS's and d1h1's encodings
            # read the collection the indicators keep on KG′
            quality = {m: _quality(kgp, targets) for m, kgp in subgraphs.items()}

            acc: dict[str, float] = {}
            if with_accuracy:
                frame = nc_frame(bundle, task).persist()
                tp = _train_params(sf)
                enc_fg = encode_nc(kg, frame, n_classes=task.n_classes)
                acc["RW"] = _seed_averaged_acc(enc_fg, "urw", tp)[0]
                acc["BRW"] = _seed_averaged_acc(enc_fg, "brw", tp)[0]
                for m in ("IBS", "d1h1"):
                    enc = encode_nc(subgraphs[m], frame, n_classes=task.n_classes)
                    acc[m] = _seed_averaged_acc(enc, "urw", tp)[0]
                frame.unpersist()

            paper = PAPER_TABLE3[key]
            for m, kgp in subgraphs.items():
                q = quality[m]
                rows.append(
                    {
                        "task": key,
                        "method": m,
                        "V_T": q["V_T"],
                        "V_T_pct": round(q["V_T_pct"], 1),
                        "C'": q["C'"],
                        "R'": q["R'"],
                        "discon_pct": round(q["discon_pct"], 1),
                        "avg_dist": round(q["avg_dist"], 2),
                        "entropy": round(q["entropy"], 2),
                        "extract_s": round(extract_s[m], 2),
                        "accuracy": round(100 * acc[m], 2) if m in acc else float("nan"),
                        **{f"paper_{k}": paper[k][m] for k in paper},
                    }
                )
                kgp.unpersist()
            targets.unpersist()
        index.unpersist()
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table IV
# ---------------------------------------------------------------------------

def _run_pipeline(kgp, frame, task, *, sf: float, row: dict, prefix: str) -> None:
    """Transformation + SAINT training + inference measurement on a graph."""
    tp = _train_params(sf)
    with timed(row, f"{prefix}_transform_s"):
        enc = encode_nc(kgp, frame, n_classes=task.n_classes)
    acc, result, train_s, train_mb = _seed_averaged_acc(enc, "urw", tp)
    row[f"{prefix}_train_s"] = train_s
    row[f"{prefix}_mem_mb"] = train_mb
    row[f"{prefix}_acc"] = round(100 * acc, 2)
    row[f"{prefix}_params"] = result["n_params"]
    with timed(row, f"{prefix}_infer_s"):
        result["model"].forward()


def table4(spark: SparkSession, *, sf: float = 1.0) -> pd.DataFrame:
    """FG-vs-KG' cost breakdown for the six NC tasks (KG-TOSA_d1h1):
    extraction time, transformation time, training time, total, accuracy,
    model size, inference time, training memory."""
    rows = []
    for bundle, tasks in _kg_groups(spark, NC_TASKS, sf):
        kg, index = bundle.kg, build_index(bundle.kg)
        for key, task in tasks:
            frame = nc_frame(bundle, task).persist()
            row: dict = {"task": key}

            # FG pipeline (no extraction step)
            row["fg_extract_s"] = 0.0
            _run_pipeline(kg, frame, task, sf=sf, row=row, prefix="fg")

            # KG' pipeline: d1h1 extraction first
            targets = target_vertices(kg, task)
            with timed(row, "kgp_extract_s"):
                kgp = materialize(extract_tosg(index, targets, TOSGPattern(1, 1)))
            _run_pipeline(kgp, frame, task, sf=sf, row=row, prefix="kgp")

            row["fg_total_s"] = row["fg_transform_s"] + row["fg_train_s"]
            row["kgp_total_s"] = row["kgp_extract_s"] + row["kgp_transform_s"] + row["kgp_train_s"]
            p = PAPER_TABLE4[key]
            for k, (fg, kgp_v) in p.items():
                row[f"paper_fg_{k}"], row[f"paper_kgp_{k}"] = fg, kgp_v
            rows.append(row)
            kgp.unpersist()
            frame.unpersist()
        index.unpersist()
    return pd.DataFrame(rows)


def to_markdown(df: pd.DataFrame) -> str:
    """Render a harness frame as a GitHub markdown table."""
    d = df.copy()
    for c in d.columns:
        if d[c].dtype == float:
            d[c] = d[c].map(lambda v: "" if pd.isna(v) else f"{v:.2f}")
    header = "| " + " | ".join(map(str, d.columns)) + " |"
    sep = "|" + "|".join(["---"] * len(d.columns)) + "|"
    body = ["| " + " | ".join(map(str, r)) + " |" for r in d.itertuples(index=False)]
    return "\n".join([header, sep, *body])
