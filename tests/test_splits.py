"""Train/valid/test splitters (Table II): measured fractions, fold
disjointness, time ordering, stratification, determinism."""
import pytest
from pyspark.sql import functions as F

from repro.tasks.defs import LP_TASKS, NC_TASKS, TASKS
from repro.tasks.splits import lp_frame, nc_frame, split_fractions

NC_KEYS = list(NC_TASKS)
LP_KEYS = list(LP_TASKS)


def _frame(bundles, key):
    task = TASKS[key]
    b = bundles[task.kg_name]
    return (nc_frame if task.tt == "NC" else lp_frame)(b, task)


@pytest.mark.parametrize("key", NC_KEYS + LP_KEYS)
def test_fractions_match_table2_ratios(bundles, key):
    task = TASKS[key]
    frac = split_fractions(_frame(bundles, key))
    for s, want in zip(("train", "valid", "test"), task.ratios):
        assert frac[s] == pytest.approx(want, abs=0.03)


@pytest.mark.parametrize("key", NC_KEYS)
def test_every_target_assigned_exactly_once(bundles, key):
    task = TASKS[key]
    f = _frame(bundles, key)
    assert f.count() == bundles[task.kg_name].labels[task.label_key].count()
    assert f.where(~F.col("split").isin("train", "valid", "test")).count() == 0


@pytest.mark.parametrize("key", [k for k in NC_KEYS if TASKS[k].split == "time"])
def test_time_split_ordering(bundles, key):
    """Oldest examples train, newest test: max(train year) <= min(test
    year) can be violated only inside the boundary year."""
    f = _frame(bundles, key)
    max_train = f.where("split = 'train'").agg(F.max("year")).first()[0]
    min_test = f.where("split = 'test'").agg(F.min("year")).first()[0]
    assert max_train <= min_test + 1


@pytest.mark.parametrize("key", [k for k in NC_KEYS if TASKS[k].split == "random"])
def test_random_split_stratified_per_label(bundles, key):
    task = TASKS[key]
    f = _frame(bundles, key)
    per_label = (
        f.groupBy("label")
        .agg(
            (F.sum(F.when(F.col("split") == "train", 1).otherwise(0)) / F.count("*")).alias("tr")
        )
        .toPandas()
    )
    assert (abs(per_label["tr"] - task.ratios[0]) < 0.12).all()


@pytest.mark.parametrize("key", ["PC/YAGO-30M", "CA/YAGO3-10"])
def test_random_split_deterministic_in_seed(bundles, key):
    a = _frame(bundles, key).orderBy(*_frame(bundles, key).columns[:1]).toPandas()
    b = _frame(bundles, key).orderBy(*_frame(bundles, key).columns[:1]).toPandas()
    assert a.equals(b)


@pytest.mark.parametrize("key", LP_KEYS)
def test_lp_frame_covers_all_task_triples(bundles, key):
    task = TASKS[key]
    kg = bundles[task.kg_name].kg
    n_task = kg.triples.where(F.col("p") == task.predicate).count()
    assert _frame(bundles, key).count() == n_task


@pytest.mark.parametrize("key", LP_KEYS)
def test_lp_split_has_nonempty_folds(bundles, key):
    frac = split_fractions(_frame(bundles, key))
    assert all(frac[s] > 0 for s in ("train", "valid", "test"))
