"""spark-submit entrypoint: extract a TOSG for one benchmark task and
print its statistics — the KG-TOSA workflow of the paper's Fig. 4.

Usage: spark-submit jobs/extract_tosg.py <task-key> [d] [h] [sf]
e.g.   spark-submit jobs/extract_tosg.py PV/MAG-42M 1 1 0.1
"""
import sys

from repro.core.pattern import TOSGPattern
from repro.core.sparql_extract import extract_tosg
from repro.core.subgraph import materialize
from repro.kg import generator
from repro.kg.partition import build_index
from repro.kg.stats import kg_stats
from repro.metrics.sufficiency import sufficiency_stats
from repro.tasks.defs import TASKS, target_vertices
from repro.session import get_session

if __name__ == "__main__":
    key = sys.argv[1] if len(sys.argv) > 1 else "PV/MAG-42M"
    d = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    h = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    sf = float(sys.argv[4]) if len(sys.argv) > 4 else 0.1
    task = TASKS[key]
    spark = get_session("extract_tosg")
    bundle = generator.generate(task.kg_name, spark, sf=sf)
    index = build_index(bundle.kg)
    targets = target_vertices(bundle.kg, task)
    kgp = materialize(
        extract_tosg(
            index,
            targets,
            TOSGPattern(d, h),
            lp_predicate=task.predicate if task.tt == "LP" else None,
        )
    )
    print("KG  :", kg_stats(bundle.kg))
    print("KG' :", kg_stats(kgp))
    print("suff:", sufficiency_stats(kgp, targets))
    spark.stop()
