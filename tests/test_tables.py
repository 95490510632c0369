"""Table harnesses: structure of the produced frames and the paper-shape
invariants they must exhibit at unit-test scale."""
import gc
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.bench import tables
from repro.bench.measure import measured
from repro.bench.tables import (
    PAPER_TABLE1,
    T3_TASKS,
    table1,
    table2,
    table3,
    table4,
    to_markdown,
)
from repro.kg import generator
from tests.test_generator import EXPECTED_TYPE_COUNTS

SF = 0.05


@contextmanager
def _cache_calls(calls: list):
    """Append to ``calls``, in order, ``("generate", kg)`` and
    ``("build_index", kg)`` for each KG the harness generates and indexes,
    and ``("unpersist", what)`` when either of them is unpersisted."""
    generate, build_index = generator.generate, tables.build_index

    def traced(obj, event):
        calls.append(event)
        unpersist = obj.unpersist

        def logged():
            calls.append(("unpersist", event))
            unpersist()

        obj.unpersist = logged
        return obj

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generator, "generate", lambda name, *a, **kw: traced(
            generate(name, *a, **kw), ("generate", name)))
        mp.setattr(tables, "build_index", lambda kg: traced(
            build_index(kg), ("build_index", kg.name)))
        yield


@pytest.fixture(scope="module")
def cache_calls():
    """Table name -> the ``_cache_calls`` record of its module-scoped run."""
    return {}


@pytest.fixture(scope="module")
def t1(spark):
    return table1(spark, sf=SF)


@pytest.fixture(scope="module")
def t2(spark, cache_calls):
    with _cache_calls(cache_calls.setdefault("t2", [])):
        return table2(spark, sf=SF)


@pytest.fixture(scope="module")
def t3(spark):
    return table3(spark, sf=SF, with_accuracy=False)


@pytest.fixture(scope="module")
def t4(spark, cache_calls):
    with _cache_calls(cache_calls.setdefault("t4", [])):
        return table4(spark, sf=SF)


def test_table1_covers_all_kgs(t1):
    assert set(t1["kg"]) == set(PAPER_TABLE1)


@pytest.mark.parametrize("name", ["MAG-42M", "YAGO-30M", "DBLP-15M", "YAGO3-10"])
def test_table1_type_counts_match_paper(t1, name):
    row = t1[t1.kg == name].iloc[0]
    assert row["n_type"] == row["paper_n_type"]
    assert row["e_type"] == row["paper_e_type"]


def test_table1_scale_ordering_preserved(t1):
    """Relative KG sizes must follow the paper: MAG > YAGO > DBLP > wikikg2
    in node count."""
    n = t1.set_index("kg")["nodes"]
    assert n["MAG-42M"] > n["YAGO-30M"] > n["DBLP-15M"] > n["ogbl-wikikg2"]


def test_table2_all_nine_tasks(t2):
    assert len(t2) == 9
    assert set(t2["TT"]) == {"NC", "LP"}
    assert list(t2.columns[:6]) == ["TT", "Name", "KG", "Split", "Ratio", "Metric"]


def test_table2_ratios_near_paper(t2):
    for _, row in t2.iterrows():
        got = [float(x) for x in row["Ratio"].split("/")]
        want = [float(x) for x in row["paper_Ratio"].split("/")]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=4.0)


def test_table3_rows_complete(t3):
    assert set(t3["task"]) == set(T3_TASKS)
    assert set(t3["method"]) == {"RW", "BRW", "IBS", "d1h1"}
    assert len(t3) == 16


@pytest.mark.parametrize("method", ["BRW", "IBS", "d1h1"])
def test_table3_task_oriented_methods_have_zero_disconnected(t3, method):
    """The paper's Table III: all three task-oriented extractors eliminate
    target-disconnected vertices; URW does not (on MAG/YAGO)."""
    assert (t3[t3.method == method]["discon_pct"] == 0).all()


def test_table3_urw_leaves_disconnected_mass(t3):
    rw = t3[t3.method == "RW"].set_index("task")
    assert rw.loc["PV/MAG-42M", "discon_pct"] > 20
    assert rw.loc["CG/YAGO-30M", "discon_pct"] > 20


def test_table3_target_ratio_ordering(t3):
    """BRW and d1h1 raise the target-vertex ratio over URW on every task."""
    for task in T3_TASKS:
        sub = t3[t3.task == task].set_index("method")
        assert sub.loc["BRW", "V_T_pct"] > sub.loc["RW", "V_T_pct"]
        assert sub.loc["d1h1", "V_T_pct"] > sub.loc["RW", "V_T_pct"]


def test_table3_types_reduced(t3):
    """|C'| and |R'| shrink vs the full KG for the task-oriented methods."""
    for task in T3_TASKS:
        kg_name = task.split("/")[1]
        c_full, r_full = EXPECTED_TYPE_COUNTS[kg_name]
        sub = t3[t3.task == task].set_index("method")
        for m in ("BRW", "IBS", "d1h1"):
            assert sub.loc[m, "C'"] < c_full
            assert sub.loc[m, "R'"] < r_full


def test_table4_covers_six_nc_tasks(t4):
    assert len(t4) == 6


def test_table4_kgp_smaller_model(t4):
    assert (t4["kgp_params"] < t4["fg_params"]).all()


def test_table4_totals_consistent(t4):
    np.testing.assert_allclose(
        t4["fg_total_s"], t4["fg_transform_s"] + t4["fg_train_s"], rtol=1e-6
    )
    np.testing.assert_allclose(
        t4["kgp_total_s"],
        t4["kgp_extract_s"] + t4["kgp_transform_s"] + t4["kgp_train_s"],
        rtol=1e-6,
    )


def test_table4_training_time_reduced(t4):
    """KG' training must be faster than FG for most tasks (the headline
    claim); allow one exception at tiny scale."""
    wins = (t4["kgp_train_s"] < t4["fg_train_s"]).sum()
    assert wins >= len(t4) - 1


@pytest.mark.parametrize("table", ["t2", "t4"])
def test_harness_caches_one_kg_at_a_time(request, cache_calls, table):
    """Each KG is generated once, and it and its index are unpersisted
    before the next KG is generated, so Spark's cache holds one KG (plus
    its index) at a time and none once the table is done."""
    request.getfixturevalue(table)
    calls = cache_calls[table]
    generated = [e for e in calls if e[0] == "generate"]
    assert len({name for _, name in generated}) == len(generated) > 1
    held: set = set()
    for event in calls:
        if event[0] == "unpersist":
            held.remove(event[1])
        else:
            assert event[0] == "build_index" or not held, (event, held)
            held.add(event)
    assert not held
    if table == "t4":
        assert sum(e[0] == "build_index" for e in calls) == len(generated)


def test_to_markdown_renders(t1):
    md = to_markdown(t1)
    assert md.startswith("| kg |")
    assert md.count("\n") == len(t1) + 1


@pytest.mark.parametrize("argv", [[], ["0"], ["5"]], ids=["none", "0", "5"])
def test_run_table_rejects_bad_table_number(argv):
    """No table number, or one outside 1..4: the usage line and exit code 2,
    before a Spark session starts (which would log to stderr)."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    p = subprocess.run(
        [sys.executable, str(root / "jobs" / "run_table.py"), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert p.returncode == 2
    assert p.stdout == ""
    assert p.stderr.startswith("usage: run_table.py N [sf]") and p.stderr.count("\n") == 1


def _cycles(n: int) -> None:
    """Leave ``n`` reference cycles, each holding 10 KB, for the garbage
    collector: one tracked container per cycle."""
    for _ in range(n):
        a = [bytes(10_000)]
        a.append(a)


def test_measured_peak_ignores_garbage_held_at_entry():
    """Table IV's memory cells: the same call reports the same peak whether
    or not the interpreter holds cyclic garbage when it starts. 400 cycles
    of garbage at entry would make the collector run partway through the
    measured call's 500 cycles (its threshold is 700) and lower its peak."""
    gc.collect()
    _, _, clean = measured(_cycles, 500)
    gc.collect()
    _cycles(400)
    _, _, dirty = measured(_cycles, 500)
    assert clean > 4.5 and dirty == pytest.approx(clean, rel=0.01)
