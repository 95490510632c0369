"""Synthetic benchmark KG generators: type counts (Table I), referential
integrity, determinism, label coverage, and the structural properties the
paper's results rest on (noise disconnected from the task core, target
scarcity/abundance per KG)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.kg import generator
from repro.kg.stats import kg_stats
from repro.tasks.defs import NC_TASKS, TASKS, target_vertices

ALL_KGS = list(generator.GENERATORS)

# Expected |C| / |R| per KG (compared to Table I).
EXPECTED_TYPE_COUNTS = {
    "MAG-42M": (58, 62),
    "DBLP-15M": (42, 48),
    "YAGO-30M": (104, 98),
    "ogbl-wikikg2": (120, 100),
    "YAGO3-10": (23, 37),
}


@pytest.mark.parametrize("name", ALL_KGS)
def test_expected_type_counts(bundles, name):
    kg = bundles[name].kg
    n_types, e_types = EXPECTED_TYPE_COUNTS[name]
    st = kg_stats(kg)
    assert st["n_type"] == n_types
    assert st["e_type"] == e_types


@pytest.mark.parametrize("name", ALL_KGS)
def test_triples_reference_existing_nodes(bundles, name):
    kg = bundles[name].kg
    ids = kg.nodes.select("id")
    dangling_s = kg.triples.join(ids.withColumnRenamed("id", "s"), "s", "anti").count()
    dangling_o = kg.triples.join(ids.withColumnRenamed("id", "o"), "o", "anti").count()
    assert dangling_s == 0 and dangling_o == 0


@pytest.mark.parametrize("name", ALL_KGS)
def test_no_self_loops(bundles, name):
    assert bundles[name].kg.triples.where(F.col("s") == F.col("o")).count() == 0


@pytest.mark.parametrize("name", ALL_KGS)
def test_no_duplicate_triples(bundles, name):
    t = bundles[name].kg.triples
    assert t.count() == t.dropDuplicates(["s", "p", "o"]).count()


@pytest.mark.parametrize("name", ALL_KGS)
def test_unique_node_ids(bundles, name):
    n = bundles[name].kg.nodes
    assert n.count() == n.select("id").distinct().count()


@pytest.mark.parametrize("name", ["MAG-42M", "DBLP-15M"])
def test_node_count_scales_with_sf(spark, name):
    # not the fixtures' default seed: unpersisting a KG built with the same
    # plan as a session fixture would drop that fixture's cache too
    small = generator.generate(name, spark, sf=0.05, seed=5)
    big = generator.generate(name, spark, sf=0.1, seed=5)
    ns, nb = kg_stats(small.kg)["nodes"], kg_stats(big.kg)["nodes"]
    assert nb == pytest.approx(2 * ns, rel=0.15)
    small.unpersist(), big.unpersist()


def test_deterministic_in_seed(spark):
    a = generator.mag(spark, sf=0.05)
    b = generator.mag(spark, sf=0.05)
    ta = a.kg.triples.orderBy("s", "p", "o").toPandas()
    tb = b.kg.triples.orderBy("s", "p", "o").toPandas()
    assert ta.equals(tb)
    a.unpersist(), b.unpersist()


def test_different_seed_changes_graph(spark):
    a = generator.mag(spark, sf=0.05, seed=11)
    b = generator.mag(spark, sf=0.05, seed=99)
    ta = a.kg.triples.orderBy("s", "p", "o").toPandas()
    tb = b.kg.triples.orderBy("s", "p", "o").toPandas()
    assert not ta.equals(tb)
    a.unpersist(), b.unpersist()


@pytest.mark.parametrize("key", list(NC_TASKS))
def test_labels_cover_all_targets(bundles, key):
    task = TASKS[key]
    bundle = bundles[task.kg_name]
    labels = bundle.labels[task.label_key]
    targets = target_vertices(bundle.kg, task)
    assert labels.count() == targets.count()
    assert labels.join(targets, "id", "anti").count() == 0


@pytest.mark.parametrize("key", list(NC_TASKS))
def test_label_range(bundles, key):
    task = TASKS[key]
    labels = bundles[task.kg_name].labels[task.label_key]
    mm = labels.agg(F.min("label"), F.max("label")).first()
    assert mm[0] >= 0 and mm[1] < task.n_classes


@pytest.mark.parametrize(
    "name,timed_type",
    [("MAG-42M", "Paper"), ("DBLP-15M", "Paper"), ("DBLP-15M", "Author"),
     ("YAGO-30M", "Person"), ("ogbl-wikikg2", "Person"), ("YAGO3-10", "Person")],
)
def test_timed_types_have_years(bundles, name, timed_type):
    kg = bundles[name].kg
    untimed = kg.nodes.where(
        (F.col("ntype") == timed_type) & F.col("year").isNull()
    ).count()
    assert untimed == 0


@pytest.mark.parametrize("name,prefix", [("MAG-42M", "magN"), ("YAGO-30M", "yagoN"), ("DBLP-15M", "dblpN")])
def test_noise_components_disconnected_from_core(bundles, name, prefix):
    """Noise edges must stay inside noise components: no triple may mix a
    noise vertex with a core vertex (this is what makes URW samples carry
    target-disconnected mass, Fig. 2)."""
    kg = bundles[name].kg
    noise_ids = kg.nodes.where(F.col("ntype").startswith(prefix)).select("id")
    t = kg.triples
    s_noise = t.join(noise_ids.withColumnRenamed("id", "s"), "s", "semi")
    cross = s_noise.join(noise_ids.withColumnRenamed("id", "o"), "o", "anti").count()
    o_noise = t.join(noise_ids.withColumnRenamed("id", "o"), "o", "semi")
    cross += o_noise.join(noise_ids.withColumnRenamed("id", "s"), "s", "anti").count()
    assert cross == 0


def test_mag_label_signal_exists(bundles):
    """Papers of the same venue class share topic groups: the modal topic
    group per class must be far above the uniform 1/16 share."""
    b = bundles["MAG-42M"]
    topics = b.kg.vertices_of_type("Topic").toPandas()["id"].to_numpy()
    topics.sort()
    groups = np.array_split(topics, 16)
    gid = {int(t): g for g, grp in enumerate(groups) for t in grp}
    edges = b.kg.triples.where(F.col("p") == "hasTopic").toPandas()
    lab = b.labels["PV"].toPandas().set_index("id")["label"]
    edges["cls"] = edges.s.map(lab)
    edges["grp"] = edges.o.map(gid)
    match = (edges.cls == edges.grp).mean()
    assert match > 0.6


def test_target_scarcity_profile(bundles):
    """DBLP is paper-dominated; YAGO creative works are rare; MAG papers a
    modest share — the target-ratio profile behind Table III's URW rows."""
    def ratio(name, ntype):
        kg = bundles[name].kg
        return kg.vertices_of_type(ntype).count() / kg_stats(kg)["nodes"]

    assert ratio("DBLP-15M", "Paper") > 0.4
    assert ratio("YAGO-30M", "CreativeWork") < 0.08
    assert 0.1 < ratio("MAG-42M", "Paper") < 0.3


@pytest.mark.parametrize("name", ALL_KGS)
def test_generate_registry_matches_direct_call(spark, bundles, name):
    via_registry = generator.generate(name, spark, sf=0.02)
    assert via_registry.kg.name == bundles[name].kg.name
    via_registry.unpersist()
