"""spark-submit entrypoint: reproduce Table I (benchmark KG statistics).

Usage: spark-submit jobs/run_table1.py [sf]
"""
import sys

from repro.bench.tables import table1, to_markdown
from repro.session import get_session

if __name__ == "__main__":
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    spark = get_session("table1")
    df = table1(spark, sf=sf)
    print(to_markdown(df))
    spark.stop()
