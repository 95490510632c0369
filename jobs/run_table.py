"""spark-submit entrypoint: reproduce one of the paper's Tables I–IV and
print it as a markdown table.

Usage: spark-submit jobs/run_table.py N [sf]   (N in 1..4, sf default 1.0)
e.g.   spark-submit jobs/run_table.py 3 1.0
"""
import sys

from repro.bench.tables import table1, table2, table3, table4, to_markdown
from repro.session import get_session

TABLES = {"1": table1, "2": table2, "3": table3, "4": table4}

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in TABLES:
        print("usage: run_table.py N [sf]   (N in 1..4, sf default 1.0)", file=sys.stderr)
        sys.exit(2)
    n = sys.argv[1]
    sf = float(sys.argv[2]) if len(sys.argv) > 2 else 1.0
    spark = get_session(f"table{n}")
    print(to_markdown(TABLES[n](spark, sf=sf)))
    spark.stop()
