"""The benchmark's workloads: set-up, a fixed list of operations, and the
checks each operation's result must pass.

An operation is one call sequence into the public API of ``repro``, timed
as a whole; its check runs afterwards, untimed. A check compares the
result with DuckDB references computed once per run (``reference``, see
``sqlref.py``) and with invariants the method guarantees. It also compares
the result's digest with the digest recorded for this workload and seed in
``expected.json``, when there is one, and with the operation's first
digest in this run. Spans around the library calls come from the
:class:`~spans.Tracer` passed in, which is a no-op in untraced runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import sqlref
from repro.bench.tables import N_ACC_SEEDS, _train_params, t3_params
from repro.core.brw import brw_sample
from repro.core.ibs import ibs_sample
from repro.core.pattern import TOSGPattern
from repro.core.sparql_extract import extract_tosg
from repro.core.subgraph import materialize
from repro.gnn.encoding import encode_nc
from repro.gnn.saint import train_saint
from repro.kg import generator
from repro.kg.partition import build_index
from repro.metrics.sufficiency import sufficiency_stats
from repro.metrics.topology import (
    avg_distance_to_targets,
    neighbour_type_entropy,
    target_disconnected_pct,
)
from repro.tasks.defs import TASKS, target_vertices
from repro.tasks.splits import nc_frame
from spans import cached_bytes, exchanges_above_scans

D1H1 = TOSGPattern(1, 1)  # the KG′ of Table IV


@dataclass
class Op:
    """``run`` is timed; ``check(result)`` returns ``(ok, facts)``."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, dict]]


@dataclass
class State:
    bundles: dict = field(default_factory=dict)  # kg name -> KGBundle
    indices: dict = field(default_factory=dict)  # kg name -> TripleIndex
    frames: dict = field(default_factory=dict)  # task key -> persisted nc_frame
    targets: dict = field(default_factory=dict)  # task key -> targets DataFrame
    index_bytes: int = 0
    ref: dict = field(default_factory=dict)  # reference values and collected inputs
    expected: dict = field(default_factory=dict)  # op name -> digest recorded for this seed
    seen: dict = field(default_factory=dict)  # op name -> first digest in this run
    live: dict = field(default_factory=dict)  # results handed between ops

    def teardown(self) -> None:
        for kgp in self.live.values():
            if hasattr(kgp, "unpersist"):
                kgp.unpersist()
        for df in self.frames.values():
            df.unpersist()
        for df in self.targets.values():
            if df.is_cached:
                df.unpersist()
        for idx in self.indices.values():
            idx.unpersist()
        for b in self.bundles.values():
            b.unpersist()


def digest_of(value):
    """JSON form of a result digest: floats rounded to 10 decimals and NaN
    spelled ``"nan"``, so that equal results give equal JSON."""
    if isinstance(value, (float, np.floating)):
        return "nan" if math.isnan(value) else round(float(value), 10)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {k: digest_of(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [digest_of(v) for v in value]
    return value


def _matches(state: State, name: str, digest) -> bool:
    """The digest equals the one recorded for this seed, if any, and the
    operation's first digest in this run."""
    d = digest_of(digest)
    first = state.seen.setdefault(name, d)
    return d == first and state.expected.get(name, d) == d


def _setup(spark, tracer, seed: int, sf: float, kg_name: str, task: str, *,
           frame: bool = False, persist_targets: bool = False) -> State:
    """Generate the KG, build its index, and make the task's targets and,
    if asked, its NC frame."""
    st = State()
    with tracer.span("generate", kg=kg_name):
        st.bundles[kg_name] = generator.generate(kg_name, spark, sf=sf, seed=seed)
    before = cached_bytes(spark.sparkContext)
    with tracer.span("build_index", kg=kg_name):
        st.indices[kg_name] = build_index(st.bundles[kg_name].kg)
    after = cached_bytes(spark.sparkContext)
    st.index_bytes = sum(b for rid, b in after.items() if rid not in before)
    with tracer.span("target_vertices", task=task):
        t = target_vertices(st.bundles[kg_name].kg, TASKS[task])
        if persist_targets:
            t = t.persist()
            t.count()
    st.targets[task] = t
    if frame:
        with tracer.span("nc_frame", task=task):
            f = nc_frame(st.bundles[kg_name], TASKS[task]).persist()
            f.count()
        st.frames[task] = f
    return st


def _collect_kg(kg) -> tuple:
    return kg.nodes.select("id", "ntype").toPandas(), kg.triples.select("s", "p", "o").toPandas()


# ---------------------------------------------------------------------------
# extract-train
# ---------------------------------------------------------------------------

class ExtractTrain:
    """The paper's main method and its payoff: d1h1 extraction (Algorithm 3)
    against the triple index as ``jobs/extract_tosg.py`` runs it (targets
    passed unpersisted), then Table IV's two pipelines: FG (no extraction)
    and KG′ (on the d1h1 result), with accuracy averaged over
    ``N_ACC_SEEDS`` as ``_run_pipeline`` does."""

    name = "extract-train"
    min_passes = 3
    SF = 0.1
    NC = "PV/DBLP-15M"
    EXTRACT = f"{NC}:d1h1"

    def setup(self, spark, tracer, seed: int) -> State:
        return _setup(spark, tracer, seed, self.SF, TASKS[self.NC].kg_name, self.NC, frame=True)

    def reference(self, st: State) -> None:
        nodes, trip = _collect_kg(st.bundles[TASKS[self.NC].kg_name].kg)
        exp = sqlref.tosg_triples(trip, st.targets[self.NC].toPandas(), D1H1.d, D1H1.h)
        st.ref[self.EXTRACT] = (len(exp), sqlref.checksum(exp), sqlref.node_count(exp, nodes))
        st.ref["fg_nodes"] = len(nodes)

    def ops(self, st: State, tracer, seed: int) -> list[Op]:
        return [self._extract(st, tracer), self._train_op(st, tracer, "fg", seed),
                self._train_op(st, tracer, "kgp", seed)]

    def summary(self, first: dict, lat: dict) -> dict:
        fg, kgp = f"{self.NC}:fg", f"{self.NC}:kgp"
        return {
            "extract_p50_s": lat[self.EXTRACT],
            "exchanges_above_index_scan":
                first[self.EXTRACT].get("layer", {}).get("extract.d1h1.exchanges_above_index_scan"),
            "fg_pipeline_s": lat[fg],
            "kgp_pipeline_s": lat[self.EXTRACT] + lat[kgp],
            "fg_acc": first[fg].get("acc"),
            "kgp_acc": first[kgp].get("acc"),
            "n_params": {leg: first[f"{self.NC}:{leg}"].get("n_params") for leg in ("fg", "kgp")},
        }

    def _extract(self, st: State, tracer) -> Op:
        task = TASKS[self.NC]
        kg = st.bundles[task.kg_name].kg
        index = st.indices[task.kg_name]

        def run():
            with tracer.span("extract.d1h1", task=self.NC):
                return materialize(extract_tosg(index, target_vertices(kg, task), D1H1))

        def check(kgp):
            old = st.live.pop("kgp", None)
            if old is not None:
                old.unpersist()
            st.live["kgp"] = kgp  # the KG′ the kgp leg trains on
            trip = kgp.triples.select("s", "p", "o").toPandas()
            got = (len(trip), sqlref.checksum(trip), kgp.nodes.count())
            ex = exchanges_above_scans(kgp.triples, [index.by_s, index.by_o])
            facts = {"digest": digest_of(got), "layer": {
                "extract.d1h1.triples_out": got[0], "extract.d1h1.exchanges_above_index_scan": ex}}
            return got == st.ref[self.EXTRACT] and _matches(st, self.EXTRACT, got), facts

        return Op(self.EXTRACT, run, check)

    def _train_op(self, st: State, tracer, leg: str, seed: int) -> Op:
        task = TASKS[self.NC]
        tp = _train_params(self.SF)
        name = f"{self.NC}:{leg}"

        def run():
            graph = st.bundles[task.kg_name].kg if leg == "fg" else st.live["kgp"]
            with tracer.span(f"encode_nc.{leg}"):
                enc = encode_nc(graph, st.frames[self.NC], n_classes=task.n_classes)
            with tracer.span(f"train_saint.{leg}", mem=True) as s:
                result = train_saint(enc, sampler="urw", seed=seed, **tp)
                if s is not None:
                    s.attrs.update(epochs=tp["epochs"], n_params=result["n_params"])
            with tracer.span(f"forward.{leg}"):
                result["model"].forward()
            return enc, result

        def check(out):
            enc, result = out
            acc = 100 * float(result["accuracy"]["test"])
            try:
                if f"{name}:acc" not in st.ref:  # the seed-averaged accuracy, once per run
                    accs = [acc] + [100 * train_saint(enc, sampler="urw", seed=seed + 1 + s, **tp)["accuracy"]["test"]
                                    for s in range(N_ACC_SEEDS - 1)]
                    st.ref[f"{name}:acc"] = round(float(np.mean(accs)), 4)
            finally:
                if leg == "kgp":
                    st.live.pop("kgp").unpersist()
            mean_acc = st.ref[f"{name}:acc"]
            # every vertex of the graph is encoded: FG's, or the extracted KG′'s
            want_nodes = st.ref["fg_nodes"] if leg == "fg" else st.ref[self.EXTRACT][2]
            digest = (mean_acc, acc, enc.n_nodes, enc.n_edges, result["n_params"])
            ok = enc.n_nodes == want_nodes and 0.0 <= mean_acc <= 100.0 and _matches(st, name, digest)
            return ok, {"digest": digest_of(digest), "acc": mean_acc, "n_params": result["n_params"]}

        return Op(name, run, check)


# ---------------------------------------------------------------------------
# table3-quality
# ---------------------------------------------------------------------------

class Table3Quality:
    """The samplers and indicators of a Table III block: BRW and IBS samples
    of one task with the parameters ``table3`` uses, except that IBS runs
    ``IBS_ITERS`` PPR iterations, and the BRW sample scored by the four
    indicator calls (six indicators). URW is left out: it is BRW's walker
    with uniform roots."""

    name = "table3-quality"
    min_passes = 1  # a pass takes about 30 s, three times ``extract-train``'s
    SF = 0.05
    TASK = "CG/YAGO-30M"
    SCORED = "BRW"
    IBS_ITERS = 2  # t3_params has 8

    def setup(self, spark, tracer, seed: int) -> State:
        return _setup(spark, tracer, seed, self.SF, TASKS[self.TASK].kg_name, self.TASK,
                      persist_targets=True)

    def reference(self, st: State) -> None:
        st.ref["kg"] = _collect_kg(st.bundles[TASKS[self.TASK].kg_name].kg)
        st.ref["targets"] = st.targets[self.TASK].toPandas()

    def ops(self, st: State, tracer, seed: int) -> list[Op]:
        kg = st.bundles[TASKS[self.TASK].kg_name].kg
        targets = st.targets[self.TASK]
        p = t3_params(self.SF)
        samplers = {
            "BRW": ("brw_sample", lambda: brw_sample(kg, targets, bs=p["bs"], h=p["walk_h"], seed=seed)),
            "IBS": ("ibs_sample", lambda: ibs_sample(
                kg, targets, bs=p["bs"], k=p["ibs_k"], alpha=p["alpha"],
                eps=p["eps"], iters=self.IBS_ITERS, seed=seed)),
        }
        indicators = {
            "sufficiency_stats": lambda g: sufficiency_stats(g, targets),
            "target_disconnected_pct": lambda g: target_disconnected_pct(g, targets),
            "avg_distance_to_targets": lambda g: avg_distance_to_targets(g, targets),
            "neighbour_type_entropy": neighbour_type_entropy,
        }
        ops = [self._sample_op(st, tracer, m, span, fn, p) for m, (span, fn) in samplers.items()]
        return ops + [self._indicator_op(st, tracer, ind, fn) for ind, fn in indicators.items()]

    def summary(self, first: dict, lat: dict) -> dict:
        return {
            "table3_pass_s": sum(lat.values()),
            "s_by_op": lat,
            "indicators": {op: r["value"] for op, r in first.items() if "value" in r},
        }

    def _sample_ok(self, st: State, m: str, nodes, trip, p: dict) -> bool:
        """What every BRW or IBS sample must satisfy: it is the KG's subgraph
        induced by its vertices; it holds the ``bs`` root targets; a BRW
        vertex lies within ``walk_h`` hops of a target inside the sample, and
        IBS adds at most ``k·bs`` non-targets."""
        kg_nodes, kg_trip = st.ref["kg"]
        t_ids = st.ref["targets"]["id"]
        ind = sqlref.induced(kg_trip, nodes)
        if (len(ind), sqlref.checksum(ind)) != (len(trip), sqlref.checksum(trip)):
            return False
        in_t = nodes["id"].isin(t_ids)
        if not nodes["id"].isin(kg_nodes["id"]).all() or in_t.sum() < min(p["bs"], t_ids.nunique()):
            return False
        if m == "BRW":
            reached = sqlref.distances(trip, nodes["id"][in_t].tolist(), p["walk_h"])
            return set(nodes["id"].tolist()) <= reached.keys()
        return int((~in_t).sum()) <= p["ibs_k"] * p["bs"]

    def _sample_op(self, st: State, tracer, m: str, span: str, fn, p: dict) -> Op:
        def run():
            with tracer.span(span, task=self.TASK):
                return materialize(fn())

        def check(kgp):
            nodes, trip = _collect_kg(kgp)
            if m == self.SCORED:
                old = st.live.pop(m, None)
                if old is not None:
                    old.unpersist()
                st.live[m], st.live["pdf"] = kgp, (nodes, trip)
            else:
                kgp.unpersist()
            got = (len(trip), sqlref.checksum(trip))
            ok = self._sample_ok(st, m, nodes, trip, p) and _matches(st, m, got)
            return ok, {"digest": digest_of(got), "triples_out": got[0]}

        return Op(f"{self.TASK}:{m}", run, check)

    def _indicator_op(self, st: State, tracer, ind: str, fn) -> Op:
        def run():
            with tracer.span(ind, method=self.SCORED):
                return fn(st.live[self.SCORED])

        def check(value):
            nodes, trip = st.live["pdf"]
            targets = st.ref["targets"]
            if ind == "sufficiency_stats":
                ok = value == sqlref.sufficiency(nodes, trip, targets)
            else:
                ref = {"neighbour_type_entropy": lambda: sqlref.entropy(nodes, trip),
                       "target_disconnected_pct": lambda: sqlref.disconnected_pct(nodes, trip, targets),
                       "avg_distance_to_targets": lambda: sqlref.avg_distance(nodes, trip, targets)}[ind]()
                ok = (math.isnan(value) and math.isnan(ref)) or math.isclose(
                    value, ref, rel_tol=1e-9, abs_tol=1e-12)
            return ok and _matches(st, ind, value), {"digest": digest_of(value), "value": value}

        return Op(f"{self.TASK}:{self.SCORED}:{ind}", run, check)


WORKLOADS = {w.name: w for w in (ExtractTrain(), Table3Quality())}
