"""Shared session-scoped fixtures: generated benchmark KGs at unit-test
scale (sf≈0.05–0.1), triple indices, and extracted subgraphs — generated
once and reused across the suite so Spark work is amortized."""
from __future__ import annotations

import pytest

from repro.core.brw import brw_sample
from repro.core.pattern import TOSGPattern
from repro.core.sparql_extract import extract_tosg
from repro.core.subgraph import materialize
from repro.kg import generator
from repro.kg.partition import build_index
from repro.tasks.defs import TASKS, target_vertices

TEST_SF = 0.1


@pytest.fixture(scope="session")
def mag_bundle(spark):
    b = generator.mag(spark, sf=TEST_SF)
    yield b
    b.unpersist()


@pytest.fixture(scope="session")
def dblp_bundle(spark):
    b = generator.dblp(spark, sf=TEST_SF)
    yield b
    b.unpersist()


@pytest.fixture(scope="session")
def yago_bundle(spark):
    b = generator.yago(spark, sf=TEST_SF)
    yield b
    b.unpersist()


@pytest.fixture(scope="session")
def wikikg2_bundle(spark):
    b = generator.wikikg2(spark, sf=1.0)
    yield b
    b.unpersist()


@pytest.fixture(scope="session")
def yago3_bundle(spark):
    b = generator.yago3_10(spark, sf=0.3)
    yield b
    b.unpersist()


@pytest.fixture(scope="session")
def bundles(mag_bundle, dblp_bundle, yago_bundle, wikikg2_bundle, yago3_bundle):
    """Registry keyed like ``generator.GENERATORS``."""
    return {
        "MAG-42M": mag_bundle,
        "DBLP-15M": dblp_bundle,
        "YAGO-30M": yago_bundle,
        "ogbl-wikikg2": wikikg2_bundle,
        "YAGO3-10": yago3_bundle,
    }


@pytest.fixture(scope="session")
def mag_index(mag_bundle):
    idx = build_index(mag_bundle.kg)
    yield idx
    idx.unpersist()


@pytest.fixture(scope="session")
def mag_pv_targets(mag_bundle):
    t = target_vertices(mag_bundle.kg, TASKS["PV/MAG-42M"]).persist()
    t.count()
    yield t
    t.unpersist()


@pytest.fixture(scope="session")
def mag_d1h1(mag_index, mag_pv_targets):
    kgp = materialize(extract_tosg(mag_index, mag_pv_targets, TOSGPattern(1, 1)))
    yield kgp
    kgp.unpersist()


@pytest.fixture(scope="session")
def mag_urw(mag_bundle):
    """A URW sample of MAG (BRW rooted at every vertex) that keeps
    target-disconnected vertices."""
    kgp = materialize(brw_sample(mag_bundle.kg, mag_bundle.kg.nodes, bs=60, h=3, seed=3))
    yield kgp
    kgp.unpersist()
