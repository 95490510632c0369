"""Synthetic benchmark KGs (paper Table I) at a configurable scale factor.

The paper evaluates on five real KGs. We regenerate each as a synthetic
"lite" graph that preserves the structural properties the paper's results
depend on (see DESIGN.md §4.1):

- exact node/edge-type counts where feasible (MAG 58/62, YAGO 104/98,
  DBLP 42/48, YAGO3-10 23/37; wikikg2 type counts scaled to 120/100),
- per-KG target-type scarcity: papers dominate DBLP (URW stays connected to
  targets), creative works are rare in YAGO and MAG/YAGO carry large
  task-irrelevant components (URW samples are mostly disconnected from
  targets — Fig 2 / Table III),
- hub-skewed degree distributions,
- a 1-hop label signal for every NC task (class-correlated neighbour
  groups) with per-task label noise, so extraction quality translates into
  accuracy differences,
- per-target-node years for the time-based splits of Table II.

``sf=1.0`` is "bench-lite" scale, ≈1/1000 of the paper's graphs (YAGO3-10
÷10; YAGO/DBLP edge density additionally reduced ≈2×). Unit tests use
``sf=0.1``; the table harnesses use ``sf=1.0``. Generators are deterministic in
``seed``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import types as T

from repro.kg.schema import KG, KGBundle, make_kg

# Years of timed (target) nodes are uniform in [_YEAR_LO, _YEAR_HI).
_YEAR_LO, _YEAR_HI = 1990, 2021
# Noise components: node types per component, and the Zipf exponent of
# their edges' destinations (hub nodes).
_NOISE_TYPES_PER_COMP = 2
_NOISE_SKEW = 0.8


def _scale(n: int, sf: float, lo: int = 2) -> int:
    return max(lo, int(round(n * sf)))


class GraphBuilder:
    """Accumulates typed node blocks and predicate edge lists in numpy,
    then materializes Spark DataFrames once. Deterministic in ``seed``."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self._next_id = 0
        self._node_blocks: list[tuple[str, np.ndarray, np.ndarray | None]] = []
        self._edges: list[tuple[str, np.ndarray, np.ndarray]] = []

    def add_nodes(self, ntype: str, n: int, *, timed: bool = False) -> np.ndarray:
        """Allocate ``n`` ids of ``ntype``; ``timed`` adds uniform years."""
        ids = np.arange(self._next_id, self._next_id + n, dtype=np.int64)
        self._next_id += n
        years = (
            self.rng.integers(_YEAR_LO, _YEAR_HI, n).astype(np.int64)
            if timed
            else None
        )
        self._node_blocks.append((ntype, ids, years))
        return ids

    def add_edges(self, pred: str, src: np.ndarray, dst: np.ndarray) -> None:
        assert len(src) == len(dst)
        if len(src):
            self._edges.append((pred, np.asarray(src, np.int64), np.asarray(dst, np.int64)))

    def connect(
        self,
        pred: str,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        avg_out: float,
        *,
        skew: float = 0.0,
    ) -> None:
        """~``avg_out`` edges per source, destinations optionally Zipf-skewed
        (``skew`` > 0 concentrates edges on early ``dst_ids`` — hub nodes)."""
        m = int(round(len(src_ids) * avg_out))
        if m == 0 or len(dst_ids) == 0:
            return
        src = self.rng.choice(src_ids, m)
        if skew > 0:
            w = 1.0 / np.arange(1, len(dst_ids) + 1) ** skew
            dst = self.rng.choice(dst_ids, m, p=w / w.sum())
        else:
            dst = self.rng.choice(dst_ids, m)
        self.add_edges(pred, src, dst)

    def connect_signal(
        self,
        pred: str,
        src_ids: np.ndarray,
        latent: np.ndarray,
        dst_groups: list[np.ndarray],
        per_src: int,
        *,
        within_prob: float = 0.9,
    ) -> None:
        """Class-correlated edges: each source draws ``per_src`` destinations
        from its latent class's group with ``within_prob``, else from any
        group. This is the 1-hop signal an RGCN can learn the label from."""
        all_dst = np.concatenate(dst_groups)
        srcs, dsts = [], []
        for _ in range(per_src):
            use_in = self.rng.random(len(src_ids)) < within_prob
            # default: uniform over all groups (also covers latent classes
            # beyond len(dst_groups) when a tiny sf collapses groups)
            dst = self.rng.choice(all_dst, len(src_ids))
            for c, grp in enumerate(dst_groups):
                mask = use_in & (latent == c)
                if mask.any():
                    dst[mask] = self.rng.choice(grp, int(mask.sum()))
            srcs.append(src_ids)
            dsts.append(dst)
        self.add_edges(pred, np.concatenate(srcs), np.concatenate(dsts))

    def add_noise(
        self,
        prefix: str,
        n_types: int,
        n_preds: int,
        total_nodes: int,
        total_edges: int,
    ) -> None:
        """Task-irrelevant components: ``n_types`` node types grouped into
        components of ``_NOISE_TYPES_PER_COMP`` types each; ``n_preds``
        predicates distributed round-robin over components; edges stay
        inside their component so the noise is disconnected from the task
        core."""
        n_comp = max(1, (n_types + _NOISE_TYPES_PER_COMP - 1) // _NOISE_TYPES_PER_COMP)
        per_type = max(2, total_nodes // max(1, n_types))
        comp_nodes: list[list[np.ndarray]] = [[] for _ in range(n_comp)]
        for t in range(n_types):
            ids = self.add_nodes(f"{prefix}_T{t}", per_type)
            comp_nodes[t % n_comp].append(ids)
        comps = [np.concatenate(c) for c in comp_nodes if c]
        per_pred = max(1, total_edges // max(1, n_preds))
        for pidx in range(n_preds):
            comp = comps[pidx % len(comps)]
            src = self.rng.choice(comp, per_pred)
            w = 1.0 / np.arange(1, len(comp) + 1) ** _NOISE_SKEW
            dst = self.rng.choice(comp, per_pred, p=w / w.sum())
            self.add_edges(f"{prefix}_p{pidx}", src, dst)

    def latent_classes(self, ids: np.ndarray, n_classes: int) -> np.ndarray:
        return self.rng.integers(0, n_classes, len(ids))

    def observed_labels(self, latent: np.ndarray, n_classes: int, noise: float) -> np.ndarray:
        """Latent class flipped to a random class with probability ``noise``."""
        flip = self.rng.random(len(latent)) < noise
        out = latent.copy()
        out[flip] = self.rng.integers(0, n_classes, int(flip.sum()))
        return out

    def split_groups(self, ids: np.ndarray, n_groups: int) -> list[np.ndarray]:
        """Partition ``ids`` into ``n_groups`` contiguous groups (each
        non-empty as long as ``len(ids) >= n_groups``)."""
        return [g for g in np.array_split(ids, n_groups) if len(g)]

    def build(self, spark: SparkSession, name: str) -> KG:
        nodes = pd.concat(
            [
                pd.DataFrame(
                    {
                        "id": ids,
                        "ntype": ntype,
                        "year": years if years is not None else pd.array([None] * len(ids), dtype="Int64"),
                    }
                )
                for ntype, ids, years in self._node_blocks
            ],
            ignore_index=True,
        )
        triples = pd.concat(
            [
                pd.DataFrame({"s": s, "p": p, "o": o})
                for p, s, o in self._edges
            ],
            ignore_index=True,
        ).drop_duplicates(ignore_index=True)
        # no self-loops: walks/BFS/PPR assume simple directed multigraph
        triples = triples[triples.s != triples.o].reset_index(drop=True)
        return make_kg(spark, name, nodes, triples)


def _labels_df(spark: SparkSession, ids: np.ndarray, labels: np.ndarray):
    schema = T.StructType(
        [
            T.StructField("id", T.LongType(), False),
            T.StructField("label", T.IntegerType(), False),
        ]
    )
    return spark.createDataFrame(
        pd.DataFrame({"id": ids, "label": labels.astype(np.int32)}), schema=schema
    )


# ---------------------------------------------------------------------------
# The five benchmark KGs
# ---------------------------------------------------------------------------

def mag(spark: SparkSession, *, sf: float, seed: int = 11) -> KGBundle:
    """MAG-42M-lite: papers/authors/topics core + a large irrelevant mass.

    Targets: Paper (tasks PV — 16 venue classes, PD — 8 domain classes; PD's
    label is a coarsening of PV's latent venue plus extra noise, so PD
    accuracy lands below PV as in the paper). 58 node types, 62 edge types.
    """
    b = GraphBuilder(seed)
    papers = b.add_nodes("Paper", _scale(7000, sf), timed=True)
    authors = b.add_nodes("Author", _scale(4500, sf))
    topics = b.add_nodes("Topic", _scale(700, sf, lo=64))
    affils = b.add_nodes("Affiliation", _scale(300, sf, lo=16))
    # satellite types reached by 1 outgoing hop from papers — these give
    # the d1h1 TOSG its neighbour-type diversity (|C'| well above 2, V_T%
    # well below 100, as in the paper's Table III)
    fields = b.add_nodes("Field", _scale(200, sf, lo=16))
    methods = b.add_nodes("Method", _scale(150, sf, lo=16))
    grants = b.add_nodes("Grant", _scale(100, sf, lo=8))
    journals = b.add_nodes("Journal", _scale(120, sf, lo=8))
    confs = b.add_nodes("ConferenceSeries", _scale(80, sf, lo=8))
    datasets = b.add_nodes("Dataset", _scale(100, sf, lo=8))

    venue = b.latent_classes(papers, 16)
    topic_groups = b.split_groups(topics, 16)
    b.connect_signal("hasTopic", papers, venue, topic_groups, 2, within_prob=0.9)
    b.connect("cites", papers, papers, 2.0, skew=0.7)
    # authorship is an *outgoing* paper edge (as in the MAG RDF dump):
    # papers fan out to the numerous Author type
    b.connect("hasCreator", papers, authors, 2.0, skew=0.5)
    b.connect("reviews", authors, papers, 0.3, skew=0.5)
    b.connect("affiliatedWith", authors, affils, 1.0, skew=0.6)
    b.connect("topicParent", topics, topics, 1.0)
    b.connect("hasField", papers, fields, 1.0, skew=0.5)
    b.connect("usesMethod", papers, methods, 0.7, skew=0.5)
    b.connect("fundedBy", papers, grants, 0.3)
    b.connect("appearedIn", papers, journals, 0.4, skew=0.7)
    b.connect("presentedAt", papers, confs, 0.4, skew=0.7)
    b.connect("usesDataset", papers, datasets, 0.3)

    b.add_noise("magN", 48, 50, _scale(29100, sf), _scale(92000, sf))

    kg = b.build(spark, "MAG-42M-lite").persist()
    pv = b.observed_labels(venue, 16, noise=0.12)
    pd_lab = b.observed_labels(venue % 8, 8, noise=0.22)
    return KGBundle(
        kg=kg,
        labels={"PV": _labels_df(spark, papers, pv), "PD": _labels_df(spark, papers, pd_lab)},
    )


def dblp(spark: SparkSession, *, sf: float, seed: int = 13) -> KGBundle:
    """DBLP-15M-lite: paper-dominated academic KG with tiny noise share, so
    URW samples stay connected to targets (Table III: 0% disconnected).

    Targets: Paper (PV, 16 classes) and Author (AC — affiliation country,
    8 classes, signalled through class-consistent ``affiliatedWith`` edges).
    42 node types, 48 edge types.
    """
    b = GraphBuilder(seed)
    papers = b.add_nodes("Paper", _scale(8000, sf), timed=True)
    authors = b.add_nodes("Author", _scale(6000, sf), timed=True)
    affils = b.add_nodes("Affiliation", _scale(250, sf, lo=16))
    topics = b.add_nodes("Topic", _scale(450, sf, lo=64))

    venue = b.latent_classes(papers, 16)
    topic_groups = b.split_groups(topics, 16)
    b.connect_signal("hasTopic", papers, venue, topic_groups, 2, within_prob=0.92)
    b.connect("cites", papers, papers, 2.5, skew=0.7)
    # outgoing authorship (dblp-in-rdf models dc:creator off the paper)
    b.connect("hasCreator", papers, authors, 2.5, skew=0.4)
    country = b.latent_classes(authors, 8)
    affil_groups = b.split_groups(affils, 8)
    b.connect_signal("affiliatedWith", authors, country, affil_groups, 1, within_prob=0.9)
    b.connect("coAuthor", authors, authors, 2.0, skew=0.5)
    b.connect("topicParent", topics, topics, 1.0)

    b.add_noise("dblpN", 38, 42, _scale(900, sf), _scale(9000, sf))

    kg = b.build(spark, "DBLP-15M-lite").persist()
    pv = b.observed_labels(venue, 16, noise=0.08)
    ac = b.observed_labels(country, 8, noise=0.16)
    return KGBundle(
        kg=kg,
        labels={"PV": _labels_df(spark, papers, pv), "AC": _labels_df(spark, authors, ac)},
    )


def yago(spark: SparkSession, *, sf: float, seed: int = 17) -> KGBundle:
    """YAGO-30M-lite: general-purpose KG. Places are plentiful (URW samples
    stay near PC targets); creative works are rare (URW samples mostly
    disconnected from CG targets); large noise mass. 104/98 types.

    Targets: Place (PC — country, 12 classes), CreativeWork (CG — genre,
    8 classes, high label noise: the paper's CG accuracies are 15–42%).
    """
    b = GraphBuilder(seed)
    places = b.add_nodes("Place", _scale(6000, sf))
    regions = b.add_nodes("Region", _scale(400, sf, lo=48))
    works = b.add_nodes("CreativeWork", _scale(1600, sf))
    themes = b.add_nodes("Theme", _scale(300, sf, lo=32))
    persons = b.add_nodes("Person", _scale(6500, sf), timed=True)
    orgs = b.add_nodes("Organization", _scale(900, sf, lo=16))

    country = b.latent_classes(places, 12)
    region_groups = b.split_groups(regions, 12)
    b.connect_signal("locatedIn", places, country, region_groups, 1, within_prob=0.9)
    b.connect("neighborOf", places, places, 1.5, skew=0.5)
    # outgoing place→person edges: the d1h1 TOSG for PC fans out to the
    # numerous Person type (V_T% well below 100)
    b.connect("hasLeader", places, persons, 0.8, skew=0.3)
    b.connect("bornIn", persons, places, 1.0, skew=0.6)
    genre = b.latent_classes(works, 8)
    theme_groups = b.split_groups(themes, 8)
    b.connect_signal("hasTheme", works, genre, theme_groups, 2, within_prob=0.75)
    # outgoing work→person edges (creators), same rationale for CG
    b.connect("createdBy", works, persons, 1.0, skew=0.4)
    b.connect("memberOf", persons, orgs, 0.6, skew=0.6)
    b.connect("basedIn", orgs, places, 1.0)
    b.connect("themeRelated", themes, themes, 1.0)

    b.add_noise("yagoN", 98, 89, _scale(15000, sf), _scale(125000, sf))

    kg = b.build(spark, "YAGO-30M-lite").persist()
    pc = b.observed_labels(country, 12, noise=0.10)
    cg = b.observed_labels(genre, 8, noise=0.55)
    return KGBundle(
        kg=kg,
        labels={"PC": _labels_df(spark, places, pc), "CG": _labels_df(spark, works, cg)},
    )


def wikikg2(spark: SparkSession, *, sf: float, seed: int = 19) -> KGBundle:
    """ogbl-wikikg2-lite: small general KG for the PO link-prediction task
    (⟨person, occupation, ?⟩). Persons cluster by profession; ``worksWith``
    edges inside a cluster make the occupation edge learnable. Type counts
    scaled: 9.3K/535 in the paper → 120 node types / 100 edge types here.
    """
    b = GraphBuilder(seed)
    persons = b.add_nodes("Person", _scale(900, sf), timed=True)
    occs = b.add_nodes("Occupation", _scale(60, sf, lo=16))
    orgs = b.add_nodes("Organization", _scale(200, sf, lo=16))
    places = b.add_nodes("Place", _scale(140, sf, lo=16))

    prof = b.latent_classes(persons, 16)
    occ_groups = b.split_groups(occs, 16)
    b.connect_signal("occupation", persons, prof, occ_groups, 1, within_prob=0.92)
    # worksWith stays inside the profession cluster: the structural signal
    person_groups = b.split_groups(persons, 16)
    b.connect_signal("worksWith", persons, prof, person_groups, 3, within_prob=0.85)
    b.connect_signal("memberOf", persons, prof, b.split_groups(orgs, 16), 1, within_prob=0.8)
    b.connect("bornIn", persons, places, 1.0)
    b.connect("citizenOf", persons, places, 1.0, skew=0.8)
    b.connect("locatedIn", orgs, places, 1.0)

    b.add_noise("wikiN", 116, 94, _scale(1200, sf), _scale(10700, sf))

    kg = b.build(spark, "ogbl-wikikg2-lite").persist()
    return KGBundle(kg=kg, labels={})


def yago3_10(spark: SparkSession, *, sf: float, seed: int = 23) -> KGBundle:
    """YAGO3-10-lite: the paper's small LP KG (CA task: ⟨person,
    isCitizenOf, ?country⟩). Citizenship is consistent with the
    bornIn∘cityOfCountry composition, so TransE can learn it. 23/37 types.
    """
    b = GraphBuilder(seed)
    persons = b.add_nodes("Person", _scale(8000, sf), timed=True)
    countries = b.add_nodes("Country", _scale(80, sf, lo=24))
    cities = b.add_nodes("City", _scale(1200, sf, lo=48))
    orgs = b.add_nodes("Organization", _scale(800, sf, lo=16))
    films = b.add_nodes("Film", _scale(600, sf, lo=16))
    genres = b.add_nodes("Genre", _scale(40, sf, lo=8))
    unis = b.add_nodes("University", _scale(200, sf, lo=8))
    teams = b.add_nodes("SportsTeam", _scale(180, sf, lo=8))
    awards = b.add_nodes("Award", _scale(60, sf, lo=8))
    langs = b.add_nodes("Language", _scale(30, sf, lo=8))
    events = b.add_nodes("Event", _scale(110, sf, lo=8))

    nat = b.latent_classes(persons, 20)
    city_groups = b.split_groups(cities, 20)
    country_groups = b.split_groups(countries, 20)
    b.connect_signal("bornIn", persons, nat, city_groups, 1, within_prob=0.9)
    b.connect_signal("livesIn", persons, nat, city_groups, 1, within_prob=0.8)
    b.connect_signal("isCitizenOf", persons, nat, country_groups, 1, within_prob=0.92)
    city_nat = np.concatenate(
        [np.full(len(g), c) for c, g in enumerate(city_groups)]
    )
    b.connect_signal(
        "cityOfCountry", np.concatenate(city_groups), city_nat, country_groups, 1, within_prob=0.95
    )
    b.connect("worksAt", persons, orgs, 0.6, skew=0.6)
    b.connect("playsFor", persons, teams, 0.2, skew=0.6)
    b.connect("actedIn", persons, films, 0.3, skew=0.5)
    b.connect("hasGenre", films, genres, 1.2)
    b.connect("graduatedFrom", persons, unis, 0.4, skew=0.6)
    b.connect("marriedTo", persons, persons, 0.3)
    b.connect("hasChild", persons, persons, 0.4)
    b.connect("knows", persons, persons, 2.0, skew=0.4)
    b.connect("hasWonPrize", persons, awards, 0.2, skew=0.7)
    b.connect("speaks", persons, langs, 0.8, skew=0.9)
    b.connect("participatedIn", persons, events, 0.3)
    b.connect("locatedIn", orgs, cities, 1.0)
    b.connect("happenedIn", events, cities, 1.0)

    b.add_noise("y3N", 12, 20, _scale(1000, sf), _scale(9000, sf))

    kg = b.build(spark, "YAGO3-10-lite").persist()
    return KGBundle(kg=kg, labels={})


GENERATORS = {
    "MAG-42M": mag,
    "DBLP-15M": dblp,
    "YAGO-30M": yago,
    "ogbl-wikikg2": wikikg2,
    "YAGO3-10": yago3_10,
}

def generate(name: str, spark: SparkSession, *, sf: float, seed: int | None = None) -> KGBundle:
    """Generate benchmark KG ``name`` at scale ``sf`` (registry lookup)."""
    gen = GENERATORS[name]
    return gen(spark, sf=sf) if seed is None else gen(spark, sf=sf, seed=seed)
